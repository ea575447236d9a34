(** One worker process of the supervised service tier: the exec'd side
    of one supervisor socketpair ([rotary_cli serve-worker], the
    socketpair dup2'd to stdin).  A worker owns a {!Scheduler} and an
    ECO {!Session} store, runs the ops the supervisor forwards as
    scheduler jobs and answers them in NDJSON over the inherited fd.  It
    also takes the [{"ctl":"drain"}] control form (rolling restart) and
    runs a heartbeat thread publishing this slot's liveness and counters
    into the {!Shm} segment every ~50 ms.

    The supervisor answers the synchronous ops ([checkpoint], [status],
    [restart], [shutdown]) itself; a worker that is sent one replies
    with an error envelope.

    The worker is a fresh process image (spawned via
    [Unix.create_process], see [docs/operations.md]), so creating
    scheduler domains here carries none of the multithreaded-fork
    hazards; it leaves only via [Unix._exit]. *)

type t
(** A worker's request handling without its process shell: what {!run}
    drives from the socketpair, and what in-process tests drive
    directly. *)

val create :
  ?workers:int ->
  ?max_pending:int ->
  ?session_capacity:int ->
  session_dir:string ->
  unit ->
  t
(** A {!Scheduler} of [workers] domains with a bounded queue of
    [max_pending], and a {!Session} store keeping [session_capacity]
    sessions resident and escrowing them as files under
    [session_dir]. *)

val sessions : t -> Session.t
(** The worker's ECO session store. *)

val handle_line : t -> respond:(Rc_util.Json.t -> unit) -> string -> unit
(** Dispatch one request line.  [respond] is invoked exactly once per
    line — synchronously for parse errors, synchronous ops and
    rejected jobs, otherwise as the job's {!Scheduler} [on_done], on
    the domain that ran it — so it must be safe to call from any
    domain. *)

val drain : t -> unit
(** Stop admitting, wait until every accepted job has run and its
    response has been written, shut the scheduler down. *)

val run :
  ?workers:int ->
  ?max_pending:int ->
  ?session_capacity:int ->
  session_dir:string ->
  shm:Shm.t ->
  slot:int ->
  restarts:int ->
  fd:Unix.file_descr ->
  unit ->
  'a
(** [run ~session_dir ~shm ~slot ~restarts ~fd ()] serves request lines
    from [fd] until EOF or a drain control, then drains and
    [Unix._exit]s — it never returns.  [workers]/[max_pending]/
    [session_capacity]/[session_dir] are {!create}'s; the escrow
    directory must be shared by all sibling workers (crash recovery
    rehydrates from it).  [slot] selects the shm row written and, with
    [restarts], labels the log lines.  The row's
    [ckpt_saves]/[ckpt_skips] are this process's
    {!Checkpoint.save_counts}. *)
