(** Deadline-aware priority job scheduler over worker domains.

    Jobs are CPU-bound flow/sweep/report runs; cross-job parallelism
    comes from dedicated worker domains, and inside a worker every
    {!Rc_par.Pool} primitive is forced sequential
    ({!Rc_par.Pool.sequential_scope}) — the pool's determinism contract
    makes per-job results bit-identical to any other job count.

    Scheduling picks the highest priority first, FIFO within a
    priority.  Deadlines (relative seconds, tracked on the monotonic
    clock) are enforced twice: a job whose deadline passes while queued
    is cancelled without starting, and a running job's
    {!Cancel.t} token trips at the flow's next stage boundary.
    Admission is bounded — {!submit} rejects with a reason once
    [max_pending] jobs are queued.

    Per-job {!Rc_obs.Metrics} deltas are recorded around each run;
    they are exact when jobs run one at a time and approximate under
    concurrency (the registry is process-global), the same caveat as
    {!Rc_core.Flow_trace} deltas inside parallel suite arms. *)

type t

(** Terminal result of a job. *)
type outcome =
  | Done of Rc_util.Json.t  (** The job's result document. *)
  | Failed of string  (** The job raised; the exception text. *)
  | Cancelled of string  (** Token fired (deadline, client, shutdown). *)

type phase = Queued | Running | Finished of outcome

type info = {
  i_id : int;
  i_name : string;
  i_priority : int;
  i_phase : phase;
  i_wait_s : float;  (** Queue wait: submit → start (monotonic). *)
  i_run_s : float;  (** Execution wall time; 0 if never started. *)
  i_metrics : Rc_obs.Metrics.snapshot;  (** Delta across the run. *)
}

type counts = {
  submitted : int;
  rejected : int;
  completed : int;
  failed : int;
  cancelled : int;
  pending : int;
  running : int;
}

val create : ?workers:int -> ?max_pending:int -> unit -> t
(** Spawn [workers] (default 2) worker domains with a bounded queue of
    [max_pending] (default 64) jobs. *)

val n_workers : t -> int

val submit :
  t ->
  ?priority:int ->
  ?deadline_s:float ->
  ?name:string ->
  (Cancel.t -> Rc_util.Json.t) ->
  (int, string) result
(** Admit a job; returns its id, or [Error reason] when the queue is
    saturated or the scheduler is draining.  [priority] defaults to 0
    (higher runs first); [deadline_s] is relative seconds from now.
    The job receives its cancellation token and must poll it at its
    cancellation points (pass [Cancel.check token] as the flow
    guard). *)

val cancel : t -> int -> reason:string -> bool
(** Request cancellation.  A queued job finishes [Cancelled]
    immediately; a running job's token trips at its next poll.  [false]
    when the job is unknown or already finished. *)

val await : t -> int -> (outcome * info) option
(** Block until the job reaches a terminal phase, then forget it: the
    scheduler keeps no finished job once it has been handed back, so a
    later [await] or {!cancel} of the same id sees an unknown job.
    [None] for unknown ids.  Safe to call from any thread or domain. *)

val counts : t -> counts

val drain : t -> unit
(** Stop admitting and block until every queued and running job has
    finished — the graceful-shutdown path. *)

val shutdown : ?cancel_pending:bool -> t -> unit
(** {!drain} then join the worker domains.  With [cancel_pending]
    (default false), queued jobs are cancelled instead of executed;
    running jobs always finish (their tokens are left alone). *)
