(** Block-oriented static timing analysis over the placed netlist.

    Produces, for every sequentially adjacent flip-flop pair [i ↦ j]
    (combinational logic only between them), the maximum and minimum
    combinational path delays [D_max]/[D_min] that the skew-scheduling
    constraints (Eqs. 6–7) consume. Gate delays carry a deterministic
    per-cell variation factor so the max/min spread is realistic. *)

type t = private {
  src : int array;
      (** Launching flip-flop of pair [p], as its index in
          {!Rc_netlist.Netlist.flip_flops} (not a cell id). *)
  dst : int array;  (** Capturing flip-flop of pair [p], same indexing. *)
  d_max : float array;  (** Slowest combinational path of pair [p], ps. *)
  d_min : float array;  (** Fastest combinational path of pair [p], ps. *)
  critical : float;  (** Largest [d_max]; 0. when there are no pairs. *)
}
(** Every sequentially adjacent pair once, as four parallel arrays in
    cone order: launching flip-flops in {!Rc_netlist.Netlist.flip_flops}
    order (so [src] is non-decreasing), and each launching flip-flop's
    sinks in the order its cone first reaches them.  The order depends
    only on the netlist and the positions — not on the job count, and
    not on whether an incremental session recomputed or replayed a
    cone.  The arrays are shared with the caller (and, for a session,
    with the next replay): read them, do not write them. *)

val analyze :
  Rc_tech.Tech.t ->
  Rc_netlist.Netlist.t ->
  positions:Rc_geom.Point.t array ->
  t
(** Run STA with every cell at the given position (indexed by cell id).
    @raise Invalid_argument if positions are missing or combinational
    logic contains a cycle. *)

type session
(** An incremental-analysis session over a fixed netlist: the fanout
    structure, gate variation factors, topological order, and per-cone
    results are kept alive between analyses, so only the cones whose
    support cells moved since the previous call are re-evaluated. *)

val make_session : Rc_tech.Tech.t -> Rc_netlist.Netlist.t -> session

val analyze_batch : session -> positions:Rc_geom.Point.t array -> t
(** Like {!analyze} at the given positions, but incremental against the
    session's previous call, processing all dirty cones in a single
    batch region: the wire-delay refresh and the cone re-evaluations
    fan out to the same captive worker set, and the session's flat
    cone-stamp arenas (one per domain) are reused across calls instead
    of being reallocated per analysis. Cells are compared by exact
    position, so the result — every array, its order, and the critical
    delay — is bit-identical to a fresh {!analyze} of the same
    positions; identical positions are a pure replay of the cached
    result. Reuse is reported under the [timing.sta.replays] /
    [timing.sta.cone_recomputes] / [timing.sta.cone_reuses] /
    [timing.sta.dirty_cells] metrics. *)

val invalidate_cells : session -> int list -> unit
(** Mark cells dirty for the next analysis regardless of whether their
    coordinates changed — the targeted-invalidation hook used by the
    ECO edit path ({!Rc_core.Flow.apply_edits}).  Out-of-range ids and
    a session with no prior analysis are ignored.  Forcing a cone
    re-evaluation can never change results (exact recomputation), so
    this affects work, not values. *)
