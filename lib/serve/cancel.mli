(** Deadline checks for running jobs.

    A token carries a job's optional deadline, and the job polls
    {!check} at its cancellation points — the flow polls at every stage
    boundary through {!Flow.run}'s [guard] hook.  Deadlines are
    absolute values of {!Rc_util.Timer.now_s}, so wall-clock jumps can
    neither fire nor postpone them.  There is no manual cancellation:
    a job ends early only when its deadline passes. *)

exception Cancelled of string
(** Raised by {!check}; carries the cancellation reason. *)

type t

val create : ?deadline:float -> unit -> t
(** A token.  [deadline] is an absolute monotonic time
    ({!Rc_util.Timer.now_s} seconds); without one the token never
    fires. *)

val check : t -> unit
(** @raise Cancelled with reason ["deadline exceeded"] once the deadline
    has passed. *)

val reason : t -> string option
(** [Some "deadline exceeded"] once the deadline has passed, even if
    nobody polled before. *)
