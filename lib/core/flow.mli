(** The integrated placement and skew optimization flow of Fig. 3,
    expressed as a composition of first-class stages (see
    {!Flow_stage}) over a typed context ({!Flow_ctx}):

    1. initial placement (quadratic placer, optionally + detailed
       refinement);
    2. max-slack skew scheduling on the placed design;
    3. flip-flop-to-ring assignment (network flow, or the min-max-load
       ILP heuristic);
    4. cost-driven skew scheduling at a prespecified slack, pulling each
       delay target toward the phase of its ring's closest point;
    5. cost evaluation (tapping + signal wirelength) — keeps the best
       state seen and decides convergence;
    6. incremental placement with a pseudo-net per flip-flop pulling it
       toward its tapping point — then back to 3, until converged or
       [max_iterations] passes ran.

    The variant filling each swappable slot (stage 1, 3, 4, 6) is chosen
    once in {!plan_of_config}; the driver itself contains no behavior
    branching.  Callers can swap any slot by passing a custom {!plan}.
    The "base case" of Table III is the state right after the first pass
    of stage 3. *)

type mode = Flow_ctx.mode = Netflow | Ilp

type config = Flow_ctx.config = {
  tech : Rc_tech.Tech.t;
  bench : Bench_suite.bench;
  mode : mode;
  candidates : int;  (** Nearest rings considered per flip-flop. *)
  capacity_slack : float;  (** Ring capacity headroom factor (network flow). *)
  max_iterations : int;  (** Stage 3-6 loop bound (the paper converges in ≤5). *)
  pseudo_weight : float;  (** Pseudo-net spring weight at iteration 1. *)
  pseudo_growth : float;  (** Multiplier per iteration. *)
  stability : float;  (** Incremental-placement stability spring. *)
  slack_fraction : float;  (** Prespecified M for stage 4, as a fraction of the stage-2 maximum slack. *)
  use_weighted_skew : bool;  (** Stage 4 default: exact weighted-sum scheduling (min-cost-flow dual) instead of min-max Δ. *)
  convergence_tol : float;  (** Stop when total cost improves less than this fraction. *)
  detail_passes : int;  (** Detailed-placement refinement passes after each placement (0 disables; flip-flops are frozen during incremental refinement). *)
  tapping_weight : float;  (** Stage-5 evaluates signal_wl + weight × tapping_wl (the paper's "weighted sum of total tapping cost and traditional placement cost"). *)
  incremental : bool;  (** Reuse STA cones, Eq. 1 candidate taps, and the assignment flow network across loop iterations ({!Flow_cache}). Exact-input caching: results are bit-identical either way. *)
}

val default_config : ?mode:mode -> Bench_suite.bench -> config
(** The paper's methodology: quadratic incremental placement with
    pseudo-net springs (no detailed placement). *)

val improved_config : ?mode:mode -> Bench_suite.bench -> config
(** Beyond-paper variant: detailed-placement refinement after global
    placement, and stage 6 replaced by direct flip-flop relocation plus
    flip-flop-frozen healing — cuts tapping wirelength much harder at no
    signal cost (see the bench's "beyond the paper" section). *)

type snapshot = Flow_ctx.snapshot = {
  iteration : int;
  afd : float;  (** Average flip-flop distance = tapping WL / #FFs, µm. *)
  tapping_wl : float;  (** Total tapping wirelength, µm. *)
  signal_wl : float;  (** Total signal HPWL, µm. *)
  total_wl : float;
  clock_mw : float;
  signal_mw : float;
  total_mw : float;
  max_load_ff : float;  (** Max ring load capacitance, fF. *)
}

type outcome = {
  cfg : config;
  netlist : Rc_netlist.Netlist.t;
  rings : Rc_rotary.Ring_array.t;
  base : snapshot;  (** After the first assignment (Table III). *)
  final : snapshot;  (** After the stage 3-6 iterations (Tables IV-VII). *)
  history : snapshot list;  (** One snapshot per iteration, oldest first. *)
  positions : Rc_geom.Point.t array;  (** Final legalized cell positions. *)
  assignment : Rc_assign.Assign.t;  (** Final flip-flop→ring assignment. *)
  skews : float array;  (** Final delay target per flip-flop index. *)
  slack : float;  (** Stage-2 maximum slack M*. *)
  stage4_slack : float;  (** The prespecified M used by stage 4. *)
  n_pairs : int;  (** Sequentially adjacent pairs seen by scheduling. *)
  ilp_stats : Rc_assign.Assign.ilp_stats option;  (** Set in [Ilp] mode. *)
  trace : Flow_trace.t;
      (** Structured per-stage trace: one event per stage execution with
          wall time, objective delta and the stage's decision note. *)
  cpu_flow_s : float;  (** Derived from [trace]: total over {!Flow_trace.Optimizer} stages, s. *)
  cpu_placer_s : float;  (** Derived from [trace]: total over {!Flow_trace.Placer} stages, s. *)
}

(** One stage value per slot of the six-stage flow.  [assign] is also
    re-run inside each iteration (after stage 4) and once more in the
    epilogue, exactly as in the paper's loop. *)
type plan = {
  place : Flow_stage.t;  (** stage 1 *)
  schedule : Flow_stage.t;  (** stage 2 *)
  assign : Flow_stage.t;  (** stage 3 *)
  cost_schedule : Flow_stage.t;  (** stage 4 *)
  evaluate : Flow_stage.t;  (** stage 5 *)
  replace : Flow_stage.t;  (** stage 6 *)
}

val plan_of_config : config -> plan
(** Select the stage variant for every swappable slot from the config:
    [detail_passes] picks the placement/replacement pair, [mode] the
    assignment engine, [use_weighted_skew] the stage-4 objective. *)

val describe_plan : plan -> string list
(** One line per stage: name, variant, declared inputs/outputs. *)

val run :
  ?plan:plan ->
  ?arm:string ->
  ?guard:(Flow_ctx.t -> unit) ->
  ?on_iteration:(Flow_ctx.t -> unit) ->
  config ->
  outcome
(** Execute the full flow on the benchmark's generated circuit, with
    [plan] (default [plan_of_config cfg]) filling the stage slots and
    [arm] (default [""]) tagging every trace event of the run.

    [guard] runs before every stage execution and may raise to abort
    the run — the cooperative cancellation point used by the serve
    scheduler for job deadlines.  [on_iteration] runs at
    every iteration boundary (after the prologue, and after each
    completed stage 4-6 iteration) with a consistent context — the
    checkpoint hook (see [Rc_serve.Checkpoint]).
    @raise Failure when skew scheduling is infeasible (the generated
    circuit violates the clock period — does not happen for the shipped
    benchmarks). *)

val run_on :
  ?plan:plan ->
  ?arm:string ->
  ?guard:(Flow_ctx.t -> unit) ->
  ?on_iteration:(Flow_ctx.t -> unit) ->
  config ->
  Rc_netlist.Netlist.t ->
  outcome
(** Execute the flow on a caller-supplied netlist (e.g. an imported
    ISCAS89 .bench circuit). The config's benchmark record still
    provides the die outline and ring grid. *)

val resume_on :
  ?plan:plan ->
  ?guard:(Flow_ctx.t -> unit) ->
  ?on_iteration:(Flow_ctx.t -> unit) ->
  Flow_ctx.t ->
  outcome
(** Continue a flow from an iteration-boundary context (as restored by
    [Rc_serve.Checkpoint.load]): runs the remaining stage 4-6
    iterations and the epilogue through exactly the code path of an
    uninterrupted {!run}, so the outcome is bit-identical to never
    having stopped.  The context's [cfg] provides the plan defaults. *)

(** {1 ECO edits}

    Incremental engineering-change-order primitives against a held-open
    flow context — the core of the online session subsystem
    ([Rc_serve.Session]).  An edit batch mutates the context state,
    re-runs {e only} the stages whose inputs changed, and reports the
    quality delta.  The stage schedule is a function of the edit kinds
    alone (never of cache state), and every incremental cache validates
    against exact inputs, so replaying an edit sequence onto a freshly
    built context is bit-identical to the live incremental session —
    [Rc_serve.Checkpoint.digest_of_ctx] agrees at every step. *)

type edit =
  | Move_cells of (int * Rc_geom.Point.t) list
      (** [(cell id, new position)] writes, applied in order and clamped
          to the chip outline. *)
  | Shift_block of Rc_geom.Rect.t * float * float
      (** [(block, dx, dy)]: every cell inside the rectangle moves by
          the offset. *)
  | Retarget_ff of int * int
      (** [(flip-flop index, ring id)]: reassign one flip-flop's tap to
          the named ring (applied after the batch's stage re-runs, so it
          patches the final assignment). *)
  | Set_clock_period of float
      (** Retune the rotary rings: rebuilds the ring array, re-derives
          the skew baseline, and drops every cache keyed against the old
          geometry. *)

type edit_report = {
  er_before : snapshot;  (** State the batch started from. *)
  er_after : snapshot;  (** State after the batch's stage re-runs. *)
  er_stages : string list;  (** Names of the stages the batch re-ran. *)
  er_cells_moved : int;  (** Distinct cells repositioned by the batch. *)
  er_slack : float;  (** Stage-2 maximum slack after the batch. *)
}

val apply_edits :
  ?plan:plan ->
  ?guard:(Flow_ctx.t -> unit) ->
  Flow_ctx.t ->
  edit list ->
  Flow_ctx.t * edit_report
(** Apply one edit batch: position/period mutations first, then the
    dirty stages (a period change replays stages 2-3, any placement
    change replays one stage 4-3 loop body), then retarget patches,
    then a snapshot push.  [Flow_ctx.iteration] counts applied batches.
    [guard] is the cooperative-cancellation hook, as in {!run}.
    @raise Invalid_argument on an unplaced context, out-of-range cell,
    flip-flop or ring ids, or a non-positive clock period. *)

val context_of_outcome : ?arm:string -> ?warm:bool -> outcome -> Flow_ctx.t
(** An edit-session context over a finished flow: the outcome's shipped
    state becomes the baseline, [Flow_ctx.iteration] restarts at 0 (it
    counts applied edit batches), and fresh caches are attached —
    [warm] (default true) primes the incremental STA session from the
    restored placement.  Contexts built from equal outcomes are
    digest-equal. *)

val ff_index : Rc_netlist.Netlist.t -> int array * (int -> int)
(** [(ffs, index_of_cell)]: the flip-flop cell ids and the inverse
    mapping used to order skew/assignment arrays. *)

val skew_problem_of_sta :
  Rc_tech.Tech.t -> Rc_netlist.Netlist.t -> Rc_timing.Sta.t -> Rc_skew.Skew_problem.t
(** The STA's pairs as a skew problem over the clock constants of the
    technology.  Both index flip-flops by their position in
    {!Rc_netlist.Netlist.flip_flops}, so the problem shares the STA's
    arrays and keeps its pair order. *)

val anchors_of_assignment :
  Rc_tech.Tech.t ->
  Rc_rotary.Ring_array.t ->
  Rc_assign.Assign.t ->
  ff_positions:Rc_geom.Point.t array ->
  skews:float array ->
  Rc_skew.Cost_driven.anchor array
(** Build the stage-4 anchors: per flip-flop, the delay [t_c] at the
    closest point of its assigned ring (conductor and period shift
    chosen nearest to the current target) and the stub delay [t_ci] of
    the shortest stub, weighted by the stub length l_i. *)
