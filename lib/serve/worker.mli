(** The exec'd side of one supervisor socketpair
    ([rotary_cli serve-worker], the socketpair dup2'd to stdin): a full
    {!Server}/{!Scheduler} speaking NDJSON over the inherited fd, plus
    the [{"ctl":"drain"}] control form (rolling restart), plus a
    heartbeat thread publishing this slot's liveness and counters into
    the {!Shm} segment every ~50 ms.

    The worker is a fresh process image (spawned via
    [Unix.create_process], see [docs/operations.md]), so creating
    scheduler domains here carries none of the multithreaded-fork
    hazards; it leaves only via [Unix._exit]. *)

val run :
  ?workers:int ->
  ?max_pending:int ->
  ?pin_core:int ->
  ?session_capacity:int ->
  ?session_dir:string ->
  shm:Shm.t ->
  slot:int ->
  restarts:int ->
  fd:Unix.file_descr ->
  unit ->
  'a
(** [run ~shm ~slot ~restarts ~fd ()] serves request lines from [fd]
    until EOF or a drain control, then drains and [Unix._exit]s — it
    never returns.  [workers]/[max_pending] size the internal
    scheduler; [slot]/[restarts] become the server's
    {!Server.identity} and select the shm row written; [pin_core] pins
    the process via {!Affinity.pin_self} (warns and continues if
    unsupported).  The row's [ckpt_saves]/[ckpt_skips] are this
    process's {!Checkpoint.save_counts}.

    [session_capacity]/[session_dir] configure the ECO {!Session}
    store: the escrow directory must be shared by all sibling workers
    (crash recovery rehydrates from it). *)
