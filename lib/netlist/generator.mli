(** Synthetic sequential-circuit generator.

    Stands in for the ISCAS89 netlists synthesized through SIS in the
    paper: given the published circuit statistics (cell, flip-flop and
    net counts — Table II), it produces a random levelized DAG of logic
    between flip-flop boundaries with realistic fan-in/fan-out, so the
    placement, timing and skew-scheduling code paths see inputs of the
    same shape and scale. Deterministic in [seed]. *)

type config = {
  name : string;
  n_logic : int;  (** Number of combinational cells ("#Cells"). *)
  n_ffs : int;  (** Number of flip-flops. *)
  n_nets : int;  (** Exact number of nets to emit. *)
  n_inputs : int;  (** Primary-input pads. *)
  n_outputs : int;  (** Primary-output pads. *)
  depth : int;  (** Logic levels between flip-flop boundaries. *)
  max_fanin : int;  (** Maximum fan-in of a logic cell (≥ 1). *)
  clusters : int;  (** Locality clusters; cells mostly connect within their cluster, like the functional blocks of a real design (≥ 1). *)
  locality : float;  (** Probability that a fan-in stays inside the cluster (0-1). *)
  chip : Rc_geom.Rect.t;  (** Die outline; pads are placed on its boundary. *)
  seed : int;
}

val default_config : config
(** A small smoke-test circuit (200 cells / 24 FFs). *)

type hier_config = {
  hname : string;
  n_cells : int;  (** Total movable cells (logic + flip-flops). *)
  ff_fraction : float;  (** Flip-flop share of each block, in (0, 0.5). *)
  rent_exponent : float;  (** Rent's-rule exponent p in T = t·G{^p}. *)
  rent_coeff : float;  (** Rent's-rule coefficient t. *)
  block_cells : int;  (** Target leaf-block size (≥ 8). *)
  branching : int;  (** Hierarchy branching factor (≥ 2). *)
  hdepth : int;  (** Logic levels inside a block (≥ 2). *)
  hmax_fanin : int;  (** Maximum fan-in of a logic cell (≥ 1). *)
  hchip : Rc_geom.Rect.t;  (** Die outline; pads on its boundary. *)
  hseed : int;
}
(** Profile of a hierarchical circuit: contiguous leaf blocks of
    [block_cells] cells grouped [branching]-ways into a block tree,
    with cross-group connectivity sized by Rent's rule at every level
    of the tree — the million-cell counterpart of {!config}. *)

val hier :
  ?block_cells:int ->
  name:string ->
  n_cells:int ->
  chip:Rc_geom.Rect.t ->
  seed:int ->
  unit ->
  hier_config
(** [hier ~name ~n_cells ~chip ~seed ()]: 12% flip-flops, Rent
    exponent 0.65 / coefficient 3.0, [block_cells]-cell blocks (default
    4096), branching 4, depth 10, max fan-in 3. *)

val hier_counts : hier_config -> int * int
(** [(n_logic, n_ffs)] that {!generate_hier} will emit for this profile
    — exact, computed from the block layout without generating. *)

val generate_hier : hier_config -> Netlist.t
(** Build a hierarchical circuit. The construction streams edges through
    flat int arrays (O(edges) time and memory, no per-cell list or
    hashtable churn), so million-cell circuits generate in seconds.
    Guarantees: every movable cell drives a net and every logic cell and
    flip-flop sinks on one; combinational logic is acyclic (levelized
    inside blocks, cross-block sinks always at a strictly higher level
    or a flip-flop); pad count follows Rent's rule at die size.
    Deterministic in [hseed]. *)

val generate : config -> Netlist.t
(** Build the circuit. Guarantees: exactly [n_nets] nets; every
    flip-flop drives a net and sinks on a net (so every flip-flop takes
    part in sequential-adjacency constraints); combinational logic is
    acyclic by construction (levelized).
    @raise Invalid_argument when counts are inconsistent (e.g. [n_nets]
    smaller than [n_ffs + n_inputs] or larger than the number of
    potential drivers). *)
