(** Deadline-aware priority job scheduler over worker domains.

    Jobs are CPU-bound flow/sweep/report runs; cross-job parallelism
    comes from dedicated worker domains, and inside a worker every
    {!Rc_par.Pool} primitive is forced sequential
    ({!Rc_par.Pool.sequential_scope}) — the pool's determinism contract
    makes per-job results bit-identical to any other job count.

    Scheduling picks the highest priority first, FIFO within a
    priority.  Deadlines (relative seconds, tracked on the monotonic
    clock) are enforced twice: a job whose deadline passes while queued
    is cancelled without starting, and a running job's {!Cancel.t}
    token trips at the flow's next stage boundary.  Admission is
    bounded — {!submit} rejects with a reason once [max_pending] jobs
    are queued.

    A job's completion has one path: the domain that ran it calls the
    job's [on_done] with the outcome, outside the scheduler lock, and
    the job counts as finished only once [on_done] has returned.  The
    scheduler keeps nothing of a finished job. *)

type t

(** Terminal result of a job. *)
type outcome =
  | Done of Rc_util.Json.t  (** The job's result document. *)
  | Failed of string  (** The job raised; the exception text. *)
  | Cancelled of string  (** Its deadline passed (queued or running). *)

type finished = {
  id : int;  (** Admission order, from 1. *)
  outcome : outcome;
  wait_s : float;  (** Queue wait: submit → start (monotonic). *)
  run_s : float;  (** Execution wall time; 0 if it never started. *)
}

type counts = {
  submitted : int;
  rejected : int;
  completed : int;
  failed : int;
  cancelled : int;
  pending : int;
  running : int;  (** Taken by a domain, [on_done] not yet returned. *)
}

val create : ?workers:int -> ?max_pending:int -> unit -> t
(** Spawn [workers] (default 2) worker domains with a bounded queue of
    [max_pending] (default 64) jobs. *)

val submit :
  t ->
  ?priority:int ->
  ?deadline_s:float ->
  on_done:(finished -> unit) ->
  (Cancel.t -> Rc_util.Json.t) ->
  (unit, string) result
(** Admit a job, or [Error reason] when the queue is saturated or the
    scheduler is draining ([on_done] is then never called).  [priority]
    defaults to 0 (higher runs first); [deadline_s] is relative seconds
    from now.  The job receives its deadline token and must poll it at
    its cancellation points (pass [Cancel.check token] as the flow
    guard).  [on_done] runs exactly once, on the worker domain that
    took the job; an exception it raises is reported on stderr and
    does not stop that domain. *)

val counts : t -> counts

val shutdown : t -> unit
(** Stop admitting, block until every queued and running job has
    finished, its [on_done] included, then join the worker domains — the
    graceful-shutdown path.  Idempotent. *)
