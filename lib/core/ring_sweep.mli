(** Ring-count exploration — the paper's second future-work extension
    (Section IX): the formulations take the number of rotary rings as an
    input; sweeping it and picking the best completed flow turns it into
    a decision variable. Fewer rings mean longer stubs (the array is
    coarser); more rings mean more ring metal and smaller per-ring
    capacity — the sweep exposes the trade-off. *)

type point = {
  grid : int;  (** g, for a g×g array. *)
  n_rings : int;
  final : Flow.snapshot;  (** End-of-flow metrics at this ring count. *)
  slack : float;  (** Stage-2 slack (unchanged by the ring count). *)
  ring_metal : float;  (** Total ring conductor length, µm (2 conductors). *)
}

val sweep :
  ?mode:Flow.mode -> Bench_suite.bench -> grids:int list -> point list * point
(** Run the full flow once per grid size and return all points plus the
    winner by total wirelength including ring metal.
    @raise Invalid_argument on an empty grid list. *)

val report : point list * point -> Rc_obs.Report.table
(** The sweep as a table, one row per grid; the winner's array is
    marked with [*]. *)
