(** The five ISCAS89-profile benchmarks of Table II, reproduced by the
    synthetic generator with the published cell / flip-flop / net counts
    and ring-array sizes, plus the hierarchical scaling suite (20k to
    1M cells). The die is sized from the ring grid at a fixed ring
    pitch. *)

type source =
  | Flat of Rc_netlist.Generator.config
      (** The paper's flat levelized generator (Table II profiles). *)
  | Hier of Rc_netlist.Generator.hier_config
      (** The hierarchical Rent's-rule generator (scaling suite). *)

type bench = {
  bname : string;
  gen : source;
  ring_grid : int;  (** g for a g×g ring array (Table II's #Rings = g²). *)
}

val ring_pitch : float
(** Side of one ring tile, µm (600). *)

val chip : bench -> Rc_geom.Rect.t
(** Die outline of a benchmark, whatever its generator. *)

val netlist : bench -> Rc_netlist.Netlist.t
(** Generate the benchmark's circuit (deterministic in its seed). *)

val profile : bench -> int * int
(** [(n_logic, n_ffs)] of the benchmark's circuit, without generating
    it. *)

(** The five Table II circuits.  s9234, the smallest, is named here;
    the others are reached through {!all} and {!find}. *)

val s9234 : bench

val all : bench list
(** The five circuits in Table II order. *)

val tiny : bench
(** A fast miniature circuit for tests and the quickstart example. *)

val quick : bench list
(** The fast sanity subset ([tiny] + the smallest Table II circuit),
    shared by the CLI's and the bench harness's [--quick] modes. *)

(** The scaling suite: hierarchical circuits two orders of magnitude
    past s35932, with paper-like FF-per-ring load.  size100k is named
    here; size20k and size1m are reached through {!sizes} and
    {!find}. *)

val size100k : bench

val sizes : bench list
(** The scaling suite in size order ([size20k; size100k; size1m]). *)

val names : string list
(** Every known benchmark name ([tiny], {!all} and {!sizes}), for lookup
    error messages — derived, so new circuits cannot drift out of
    sync. *)

val find : string -> bench option
(** Look up a benchmark (including "tiny" and the scaling suite) by
    name. *)
