(** Ablation studies for the design choices DESIGN.md calls out. Each
    returns an {!Rc_obs.Report.table}; all run on small circuits so the
    whole set completes in seconds. *)

val pseudo_weight_schedule : ?bench:Bench_suite.bench -> unit -> Rc_obs.Report.table
(** Flow outcomes across pseudo-net spring weights and growth factors:
    the knob that trades signal-wirelength penalty for tapping-cost
    reduction (stage 6). *)

val candidate_rings : ?bench:Bench_suite.bench -> unit -> Rc_obs.Report.table
(** Effect of the per-flip-flop candidate-ring count on the assignment
    quality and runtime (the Section V network pruning). *)

val skew_objectives : ?bench:Bench_suite.bench -> unit -> Rc_obs.Report.table
(** Stage-4 objective: min-max Δ (graph) vs weighted-sum (LP) — final
    tapping cost and CPU. Runs two flows that differ only in the
    [cost_schedule] slot of the stage plan. *)

val incremental_engines : ?bench:Bench_suite.bench -> unit -> Rc_obs.Report.table
(** Stage-6 slot: pseudo-net quadratic re-solve vs direct
    relocate-and-heal, with the per-category CPU split from the trace. *)

val scheduling_engines : ?bench:Bench_suite.bench -> unit -> Rc_obs.Report.table
(** Max-slack scheduling: graph binary search vs LP simplex — same
    optimum, different CPU (the reason the flow defaults to the graph
    engine). *)

val complementary_phase : ?bench:Bench_suite.bench -> unit -> Rc_obs.Report.table
(** Tapping cost with and without the complementary-phase (polarity
    flipping) trick of Section III. *)

val all : ?bench:Bench_suite.bench -> unit -> Rc_obs.Report.table list
(** Every ablation, in the order above. *)
