(** Cross-iteration recomputation caches for the Fig. 3 stage 3–6 loop.

    One value of this type rides in {!Flow_ctx.t} and persists across
    stages and iterations (it is mutable by design, unlike the context).
    It bundles the incremental STA session
    ({!Rc_timing.Sta.analyze_batch}), the Eq. 1 candidate-tap
    cache with the replaying assignment solver
    ({!Rc_assign.Assign.by_netflow} with [~cache], which also replays
    the sharded solve above 4096 flip-flops), stage 6's net Laplacian
    ({!Rc_place.Qplace.laplacian}, built on the flow's first stage-6
    call and held for that flow only), and the dirty-set tracker that
    stage 6 feeds with its displacement vector.

    All caches validate against exact inputs, so they cannot change any
    flow result: a run whose every stage starts from emptied caches
    ({!reset}) is bit-identical — see [docs/incremental.md]. *)

type t

val create : unit -> t
(** Fresh, empty caches. *)

val sta_session : t -> Rc_tech.Tech.t -> Rc_netlist.Netlist.t -> Rc_timing.Sta.session
(** The lazily created incremental STA session for this flow's
    netlist. *)

val assign_cache : t -> Rc_assign.Assign.cache
(** The candidate-tap + assignment cache for stage 3. *)

val laplacian : t -> Rc_netlist.Netlist.t -> chip:Rc_geom.Rect.t -> Rc_place.Qplace.laplacian
(** Stage 6's net Laplacian of this flow's netlist and die: built on
    the first call and returned by every later one.  It lives as long
    as this value — one flow — and in no process-wide table. *)

val reset : t -> unit
(** Drop everything: the STA session (which embeds the technology),
    the Laplacian, and the assignment cache contents (which embed the
    ring array).  Called
    when an ECO edit changes those anchors — e.g. a clock-period change
    rebuilds the rings — so stale sessions can never be consulted. *)

val note_displacement : t -> prev:Rc_geom.Point.t array -> next:Rc_geom.Point.t array -> unit
(** Record stage 6's displacement vector: updates {!dirty_cells} and
    the [flow.dirty.*] metrics. *)

val dirty_cells : t -> int
(** Cells that moved at all in the last reported pass. *)
