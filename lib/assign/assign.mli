(** Stage-3 flip-flop-to-ring assignment, in the paper's two flavors:

    - {!by_netflow} (Section V): minimize total tapping cost under ring
      capacities — solved optimally as a min-cost network flow (Fig. 4);
    - {!by_ilp} (Section VI): minimize the maximum load capacitance on
      any ring — LP relaxation plus the Fig. 5 greedy rounding;
    - {!by_branch_bound}: the generic exact ILP baseline of Table I,
      with a wall-clock budget standing in for the paper's 10-hour GLPK
      cap.

    Flip-flops are indexed [0 .. n-1] with positions and delay targets
    supplied per index. Candidate arcs connect each flip-flop only to
    its [candidates] nearest rings, as the paper prescribes for
    far-apart pairs. *)

type t = {
  ring_of_ff : int array;  (** Assigned ring per flip-flop. *)
  taps : Rc_rotary.Tapping.tap array;  (** The realizing tap per flip-flop. *)
  total_cost : float;  (** Total tapping wirelength, µm. *)
  loads : float array;  (** Load capacitance per ring, fF. *)
  max_load : float;  (** Max over [loads], fF. *)
}

type pool
(** All (flip-flop, candidate-ring) Eq. 1 solves of one assignment call
    in structure-of-arrays form: tap positions, arcs, costs, ring ids
    and case tags in parallel flat Bigarrays, segment [i] holding
    flip-flop [i]'s candidates in [Ring_array.rings_near] order.  The
    assignment hot loops stream these arrays directly; {!pool_tap}
    reconstructs the exact [Tapping.tap] a boxed candidate array would
    have held. *)

val candidate_taps_batch :
  Rc_tech.Tech.t ->
  Rc_rotary.Ring_array.t ->
  ff_positions:Rc_geom.Point.t array ->
  targets:float array ->
  candidates:int ->
  pool
(** Solve every flip-flop's [candidates] nearest-ring taps in one
    parallel batch.  Each flip-flop's solves write only its own pool
    segment, so the pool contents are identical for any job count. *)

val pool_count : pool -> int -> int
(** Candidates present for flip-flop [i] (≤ the call's [candidates]). *)

val pool_ring : pool -> int -> int -> int
(** [pool_ring p i q]: the ring id of flip-flop [i]'s [q]-th candidate. *)

val pool_tap : pool -> int -> int -> Rc_rotary.Tapping.tap
(** [pool_tap p i q]: the full tap record of candidate [(i, q)],
    bit-identical to the direct [Tapping.solve] result. *)

type cache
(** Cross-iteration reuse state for {!by_netflow} and {!by_ilp}: a
    per-flip-flop cache of Eq. 1 candidate-tap solves (a slot is reused
    only when the flip-flop's position, delay target, and candidate
    count match the cached solve bit-for-bit), a cached
    {!Rc_netflow.Assignment.solver}, and the last sharded and ILP
    results for replay.  A call that re-solves any flip-flop's taps
    drops both replay slots.  Reuse is reported under the
    [assign.tapcache.hits] / [misses] / [invalidations],
    [assign.ilp.replays] and [netflow.assignment.*] metrics. *)

val make_cache : unit -> cache
(** An empty cache; pass it to successive {!by_netflow} or {!by_ilp}
    calls of the same circuit to skip work whose inputs did not
    change. *)

val cache_invalidate : cache -> ff:int -> unit
(** Drop flip-flop [ff]'s cached candidate-tap segment so the next
    {!by_netflow} re-solves it even against identical inputs — the
    targeted hook for ECO edits that change a flip-flop's environment
    without moving it.  Out-of-range ids are ignored.  A forced
    re-solve reproduces the dropped segment bit-identically, so only
    work is affected, never results. *)

val cache_reset : cache -> unit
(** Empty the cache in place: candidate-tap segments, the retained
    pool, and the cached assignment solver.  Used when the ring array or
    technology changes (e.g. a clock-period edit), after which every
    cached solve is against the wrong geometry. *)

val retarget :
  Rc_tech.Tech.t ->
  Rc_rotary.Ring_array.t ->
  t ->
  ff_positions:Rc_geom.Point.t array ->
  ff:int ->
  ring:int ->
  target:float ->
  t
(** Reassign one flip-flop to [ring], re-solving its Eq. 1 tap against
    [target] and rebuilding the load/cost bookkeeping — the ECO
    "retarget a ring segment" edit.  Every other flip-flop's tap is
    kept verbatim.
    @raise Invalid_argument on an out-of-range [ff] or [ring]. *)

val by_netflow :
  ?candidates:int ->
  ?capacities:int array ->
  ?cache:cache ->
  Rc_tech.Tech.t ->
  Rc_rotary.Ring_array.t ->
  ff_positions:Rc_geom.Point.t array ->
  targets:float array ->
  t
(** Min-cost-flow assignment. [candidates] (default 6) nearest rings per
    flip-flop; [capacities] default to
    [Ring_array.default_capacities ~slack:1.3]. If capacities leave some
    flip-flop unassigned the candidate set is widened automatically.
    With [cache], unchanged flip-flops reuse their cached candidate taps
    and an unchanged candidate list replays the last flow result; the
    result is bit-identical to the uncached call.

    Above 4096 flip-flops (far past every Table II circuit, so the
    paper path keeps the exact global solve) the bipartite graph is
    sharded by ring neighborhood: the ring grid is tiled into
    contiguous square shards, each flip-flop joins the shard of its
    nearest candidate ring with its in-shard candidates, and the
    per-shard flows run as ordered pool sub-jobs — deterministic for
    any job count.  Flip-flops a shard cannot place locally are
    repaired sequentially against the remaining global capacity: the
    cheapest pooled candidate ring with room, else the ring with room
    whose centre is nearest (Manhattan distance, ties to the lower ring
    id).  So the assignment is always complete; the cached solver is
    bypassed on this path.  With [cache], a call on which every
    flip-flop hit the tap cache, with the previous call's capacities and
    candidate count, returns a copy of the previous sharded result
    instead of re-solving the shards: its inputs are bit-identical, so
    is the result.
    @raise Invalid_argument on size mismatches, infeasible total
    capacity, or [candidates < 1]. *)

type ilp_stats = {
  lp_optimum : float;  (** OPT(LP), fF. *)
  ilp_objective : float;  (** SOLN(ILP) after rounding, fF. *)
  integrality_gap : float;  (** Eq. 4. *)
  lp_iterations : int;
  elapsed_s : float;
}

val by_ilp :
  ?candidates:int ->
  ?cache:cache ->
  Rc_tech.Tech.t ->
  Rc_rotary.Ring_array.t ->
  ff_positions:Rc_geom.Point.t array ->
  targets:float array ->
  t * ilp_stats
(** LP-relaxation + greedy rounding for the min-max-load formulation
    (Eq. 3). No capacity constraints — load balancing is implicit in the
    objective, as in the paper.  With [cache], unchanged flip-flops
    reuse their cached candidate taps, and a call on which every
    flip-flop hit the tap cache, with the previous [by_ilp] call's
    candidate count, returns a copy of that call's result and its
    stats (counted under [assign.ilp.replays]) instead of solving the
    same LP again: its inputs are bit-identical, so is the result.
    @raise Invalid_argument if [candidates < 1]. *)

type bb_stats = {
  bb_objective : float;  (** Incumbent objective, fF ([infinity] if none). *)
  bb_gap : float;  (** Incumbent / LP-optimum (Table I's IG). *)
  proved_optimal : bool;
  bb_nodes : int;
  bb_elapsed_s : float;
}

val by_branch_bound :
  ?candidates:int ->
  ?limits:Rc_ilp.Branch_bound.limits ->
  Rc_tech.Tech.t ->
  Rc_rotary.Ring_array.t ->
  ff_positions:Rc_geom.Point.t array ->
  targets:float array ->
  t option * bb_stats
(** Exact branch & bound on the same ILP, truncated by [limits]
    (default 60 s). Returns [None] when no incumbent was found in
    budget — the paper saw the same on three of five circuits.
    @raise Invalid_argument if [candidates < 1]. *)
