(** First-class flow stages and the driver primitives that execute them.

    A stage is a named, categorized [Flow_ctx.t -> Flow_ctx.t] function
    with declared inputs/outputs (the context fields it consumes and
    produces).  {!exec} times every execution, measures the stage-5
    objective delta across it, and appends a {!Flow_trace.event}. *)

type t = {
  name : string;  (** canonical stage name, shared by all variants of a slot *)
  variant : string;  (** which implementation fills the slot *)
  category : Flow_trace.category;
  inputs : string list;  (** {!Flow_ctx} fields consumed *)
  outputs : string list;  (** {!Flow_ctx} fields produced or updated *)
  advance : bool;  (** only prepares the next iteration; skipped when the loop ends *)
  run : Flow_ctx.t -> Flow_ctx.t;
}

val make :
  name:string ->
  variant:string ->
  category:Flow_trace.category ->
  ?inputs:string list ->
  ?outputs:string list ->
  ?advance:bool ->
  (Flow_ctx.t -> Flow_ctx.t) ->
  t

val describe : t -> string
(** ["name [variant] inputs -> outputs"], for --trace and docs. *)

val exec : t -> Flow_ctx.t -> Flow_ctx.t
(** Run one stage: time it and the part of it inside pool fan-outs,
    compute the objective delta across it, and record the trace event
    (consuming the stage's note). *)

val run_sequence : ?guard:(Flow_ctx.t -> unit) -> t list -> Flow_ctx.t -> Flow_ctx.t
(** [exec] each stage in order, computing each stage boundary's
    objective once: one stage's after-value is the next one's
    before-value.  [guard] runs before every stage execution; raising
    from it aborts the run — the flow's cooperative cancellation point
    (job deadlines). *)

val run_loop :
  ?guard:(Flow_ctx.t -> unit) ->
  ?on_iteration:(Flow_ctx.t -> unit) ->
  max_iterations:int ->
  t list ->
  Flow_ctx.t ->
  Flow_ctx.t
(** The stage 4-6 iteration scheme: repeat the stage list, incrementing
    [Flow_ctx.iteration], until the evaluation stage reports convergence
    or [max_iterations] is reached; once convergence is flagged the rest
    of the iteration is skipped, and [advance]-only stages (stage 6) are
    skipped on the final iteration because no later iteration will
    consume their output.  Each stage boundary's objective is computed
    once, as in {!run_sequence}, across iterations too.  [guard] is the
    per-stage cancellation hook
    (see {!run_sequence}); [on_iteration] runs after each completed
    iteration with the consistent boundary context — the checkpoint
    hook: resuming a saved boundary context via {!Flow.resume_on}
    replays the remaining iterations exactly as an uninterrupted run. *)
