(** Block-oriented static timing analysis over the placed netlist.

    Produces, for every sequentially adjacent flip-flop pair [i ↦ j]
    (combinational logic only between them), the maximum and minimum
    combinational path delays [D_max]/[D_min] that the skew-scheduling
    constraints (Eqs. 6–7) consume. Gate delays carry a deterministic
    per-cell variation factor so the max/min spread is realistic. *)

type adjacency = {
  src_ff : int;  (** Launching flip-flop (cell id). *)
  dst_ff : int;  (** Capturing flip-flop (cell id). *)
  d_max : float;  (** Slowest combinational path, ps. *)
  d_min : float;  (** Fastest combinational path, ps. *)
}

type t

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
    position, so the result — pairs list, its order, and the critical
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

val adjacencies : t -> adjacency list
(** All sequentially adjacent pairs, each listed once. *)

val critical_delay : t -> float
(** Largest [d_max] over all pairs; 0. when there are no pairs. *)
