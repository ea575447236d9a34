(** Deterministic domain-parallel execution for the flow's hot kernels.

    A single process-wide pool of worker domains executes chunked
    parallel loops and ordered maps.  The contract every caller relies
    on:

    - {b Determinism.} Every primitive produces output identical to its
      sequential execution, for any job count: ordered maps write
      result slot [i] from input [i] only, parallel loops own disjoint
      index ranges, and work is claimed by index, never racily merged.
    - {b jobs = 1 bypasses the pool entirely}: no domains are spawned
      and the body runs in the calling domain, so a single-job run is
      the sequential program, not a degenerate parallel one.
    - {b Nesting is sequential.} A parallel primitive called from inside
      a worker (e.g. a flow arm that itself solves CG systems) runs its
      body sequentially in that worker — no deadlock, same results.
    - {b Exceptions propagate.} The first exception raised by any
      participant is re-raised in the caller once the region quiesces.

    The job count comes from [ROTARY_JOBS], a [set_jobs] call (the
    CLI/bench [--jobs] flag), or [Domain.recommended_domain_count]
    capped at 8.  The pool is created lazily on first use and
    torn down via [at_exit]. *)

val set_jobs : int -> unit
(** Override the job count (clamped to [1 .. 64]).  Shuts down any
    existing pool; the next primitive re-creates one lazily. *)

val jobs : unit -> int
(** The job count currently in effect. *)

val fanout_wall_s : unit -> float
(** Wall seconds the calling domain has spent inside primitives that
    fanned work out, through a pool region or a {!region} sub-job:
    {!for_}, {!for_with}, {!map}, {!map_list} and {!both} when they do
    not take their sequential path.  [region] itself is not counted,
    only the sub-jobs published inside it, and a primitive nested in a
    parallel body runs sequentially and is never counted twice.
    Monotone per domain: read it before and after a piece of work and
    take the difference; the rest of that work's wall ran on this
    domain alone. *)

val in_parallel_region : unit -> bool
(** True inside a pool worker (where primitives run sequentially). *)

val sequential_scope : (unit -> 'a) -> 'a
(** [sequential_scope f] runs [f] with every pool primitive forced to
    its sequential path in the calling domain, and restores the previous
    behavior afterwards (also on exceptions).  For callers that provide
    their own cross-task parallelism — e.g. the serve scheduler's worker
    domains, which must not open concurrent pool regions — the pool's
    determinism contract makes this transparent: sequential execution
    produces bit-identical results. *)

val region : (unit -> 'a) -> 'a
(** [region f] runs [f] with the pool's workers held captive for its
    whole extent: every primitive called inside [f] publishes a sub-job
    to the waiting workers through a lock-free sub-barrier instead of
    waking the pool through its mutex — one domain wake-up per stage
    instead of one per solve.  Wrap a stage loop (placement iterations,
    the flow's assign/evaluate cycle) in [region]; leave leaf calls
    unchanged.

    Semantics are unchanged: work is claimed by index exactly as in a
    plain pool region, so results are bit-identical for any job count;
    exceptions raised by any participant re-raise in the caller; nested
    [region]s and primitives running inside sub-job bodies collapse to
    direct sequential calls.  When [jobs () = 1], inside a worker, or
    under {!sequential_scope}, [region f] is just [f ()]. *)

type 'a keepalive
(** Per-participant scratch slabs that survive across primitive calls.
    Slot [id] belongs exclusively to participant [id] of the pool, so
    reuse is race-free and does not affect determinism. *)

val keepalive : unit -> 'a keepalive
(** A fresh keepalive with no slabs allocated; {!for_with} fills slots
    on demand via its [init]. *)

val both : ?parallel:bool -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Run the two thunks, concurrently when [jobs () > 1].  [both f g]
    equals [(f (), g ())] bit-for-bit when [f] and [g] are independent.
    Pass [~parallel:false] when the caller knows the work is too small
    to amortize a pool region — the thunks then run sequentially in the
    calling domain (identical results, no region overhead). *)

val for_ : ?chunk:int -> ?min_items:int -> int -> (int -> unit) -> unit
(** [for_ n body] runs [body i] for [i = 0 .. n-1], claimed in chunks of
    [chunk] (default: [n / (8 * jobs)], at least 1) by the
    participants.  [body] must only write state owned by index [i].
    When [n < min_items] (default 2) the loop runs sequentially in the
    calling domain: a per-call cutoff for bodies too cheap to amortize
    waking the pool.  Results are identical either way. *)

val for_with :
  ?chunk:int ->
  ?min_items:int ->
  ?reuse:'s keepalive ->
  init:(unit -> 's) ->
  int ->
  ('s -> int -> unit) ->
  unit
(** Like {!for_}, but each participating domain calls [init] once and
    passes the resulting scratch state to every [body] call it executes
    — per-domain scratch buffers without per-index allocation.

    With [~reuse:ka], the slab for participant [id] is looked up in
    [ka] first and stored there after creation, so repeated calls (a
    batch region's iteration loop) allocate scratch at most once per
    participant instead of once per call.  The caller owns [ka] and
    must pass it only to call sites whose [init] builds compatible
    scratch. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** Ordered parallel map: result slot [i] is [f a.(i)].  Identical to
    [Array.map f a] for pure [f], for any job count.  A one-element
    array maps in the calling domain. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map over a list (internally via arrays). *)
