(** The online ECO session store: completed flows held resident per
    worker and edited incrementally over the wire.

    A session is a {!Rc_core.Flow_ctx.t} seeded by a finished flow
    ([session_open]) and advanced one edit batch at a time
    ([session_edit] → {!Rc_core.Flow.apply_edits}), keeping the
    incremental machinery warm between batches: the STA session, the
    Eq. 1 candidate-tap cache, and the cached assignment solver.

    {1 Escrow and eviction}

    After {e every} applied batch the session's full state is escrowed
    as a checkpoint file, [dir/eco-sid<N>.ckpt], written and read
    through {!Checkpoint.save} / {!Checkpoint.load} (atomic temp file +
    rename; the directory is created on first save).  Eviction under
    the LRU [capacity] therefore just drops the resident context; the
    next op on the session rehydrates it transparently from its escrow
    file (STA session re-warmed).  The same path serves crash recovery:
    every worker of a supervisor shares one escrow directory, so a
    sibling that receives a redispatched edit finds no resident entry,
    loads the crashed worker's escrow, and continues.

    {1 Replay bit-identity}

    The stages {!Rc_core.Flow.apply_edits} re-runs are a function of
    the edit kinds alone and every cache validates against exact
    inputs, so any edit sequence replayed from scratch (fresh
    [session_open], same batches) produces digests
    ({!Checkpoint.digest_of_ctx}) identical to the live session's at
    every step — including across eviction, rehydration, and worker
    crashes.  Tests and the smoke script enforce this.

    {1 Idempotent edits}

    Each edit carries a 1-based sequence number (stamped by the
    supervisor).  A batch at or below the session's applied count is
    acknowledged without re-applying (the crash-redispatch dedupe); a
    batch ahead of the next expected number waits briefly for its
    predecessors (scheduler domains may overtake each other), then
    errors. *)

type t

val create : ?capacity:int -> dir:string -> unit -> t
(** A store escrowing under [dir] and keeping at most [capacity]
    (default 8) sessions resident; beyond that the least-recently-used
    escrowed session is evicted.  Counters surface as [serve.session.*]
    metrics (shm export table / [rotary_cli top]). *)

val job_of_op : t -> Protocol.op -> (Cancel.t -> Rc_util.Json.t) option
(** The scheduler job body for a session op ([Some] exactly when
    {!Protocol.job_of_op} returns [None] on a [Session_*] op).  Job
    bodies raise [Failure] on session errors (unknown id, sequence
    gap, closed session), which the worker turns into error
    envelopes. *)

val counts : t -> int * int
(** [(resident, known)] sessions. *)
