(** The six stage implementations of the paper's Fig. 3 flow, as
    pluggable {!Flow_stage.t} values.  Slots with multiple
    implementations expose each variant, plus an [*_of] selector where
    a config field picks the default; {!Flow.plan_of_config} wires them
    into a plan, and callers swap variants by building a custom plan.

    The stages hold the flow's one-value constants: stage 2 sets stage
    4's prespecified slack to half its maximum slack, stage 5 declares
    convergence below a 0.2 % cost improvement, and stage 6's stability
    spring is {!Rc_place.Qplace.incremental}'s default. *)

(** {2 Stage 1: initial placement} *)

val placement_of : Flow_ctx.config -> Flow_stage.t

(** {2 Stage 2: max-slack skew scheduling} *)

val max_slack_scheduling : Flow_stage.t
(** Fishburn's difference-constraint problem via SPFA binary search.
    @raise Failure when infeasible. *)

(** {2 Stage 3: flip-flop-to-ring assignment} *)

val assignment_of : Flow_ctx.mode -> Flow_stage.t

(** {2 Stage 4: cost-driven skew scheduling} *)

val cost_driven_minmax : Flow_stage.t
(** Min-max Δ objective on the constraint graph: the slot's default. *)

val cost_driven_weighted : Flow_stage.t
(** Exact weighted-sum objective (min-cost-flow dual), reached by
    swapping the plan's [cost_schedule] slot. *)

(** {2 Stage 5: evaluation} *)

val evaluation : Flow_stage.t
(** Snapshot the current state, keep the best state seen (stage-5
    invariant), and decide convergence from the cost improvement. *)

(** {2 Stage 6: incremental placement} *)

val incremental_qplace : Flow_stage.t
(** Quadratic re-solve with pseudo-net springs to the tapping points
    (the paper's flow). *)

val incremental_relocate : Flow_stage.t
(** Beyond-paper: step flip-flops toward their taps directly and heal
    the surrounding logic with flip-flops frozen. *)

val incremental_of : Flow_ctx.config -> Flow_stage.t

(** {2 Epilogue} *)

val finalize : Flow_stage.t
(** Driver-owned (not part of the swappable plan): evaluate the state
    after the last movement + re-assignment, then restore the
    minimum-cost snapshot's state so a regressing last iteration cannot
    ship. *)
