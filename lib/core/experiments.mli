(** One driver per table and figure of the paper's evaluation
    (Section VIII). Each table is an {!Rc_obs.Report.table}, so it can
    be both printed and checked cell by cell.

    Flow executions are the expensive part; {!run_suite} runs each
    circuit once per assignment mode and the table builders share the
    results. *)

type suite_entry = {
  bench : Bench_suite.bench;
  netflow : Flow.outcome;  (** The full six-stage flow (network-flow assignment). *)
  ilp : (Rc_assign.Assign.t * Rc_assign.Assign.ilp_stats) option;
      (** The Section VI min-max-load assignment run once on the flow's
          final state — the paper's Table V/VI comparison point (its CPU
          column repeats Table I's, showing the ILP was a drop-in
          alternative at stage 3, not a separate iterated flow). *)
}

val run_suite :
  ?benches:Bench_suite.bench list ->
  ?with_ilp:bool ->
  ?log:bool ->
  unit ->
  suite_entry list
(** Run the full flow on each benchmark (default: the five Table II
    circuits); when [with_ilp] (default true) also evaluate the ILP
    assignment on each final state.  [log] prints per-circuit progress
    to stderr. *)

type stage2 = {
  tech : Rc_tech.Tech.t;
  rings : Rc_rotary.Ring_array.t;
  problem : Rc_skew.Skew_problem.t;
  ff_positions : Rc_geom.Point.t array;
  targets : float array;  (** The stage-2 maximum-slack schedule. *)
}

val stage2_state : Bench_suite.bench -> stage2
(** Stage 1 (initial placement) and stage 2 of one circuit: the input of
    Table I and of the ablations. @raise Failure if stage 2 is infeasible. *)

(** {1 Table I — integrality gap of greedy rounding vs. a generic ILP solver} *)

type table1_row = {
  t1_name : string;
  greedy_ig : float;
  greedy_cpu : float;
  bb_ig : float;  (** NaN when the solver found no incumbent in budget. *)
  bb_cpu : float;
  bb_optimal : bool;
}

val table1 :
  ?benches:Bench_suite.bench list -> ?bb_seconds:float -> unit -> table1_row list * Rc_obs.Report.table
(** Standalone (does not need {!run_suite}): {!stage2_state} per
    circuit, then the min-max-capacitance assignment by greedy rounding
    and by branch & bound with a [bb_seconds] budget (default 120 s —
    standing in for the paper's 10-hour GLPK cap; big circuits overshoot
    it by one LP solve, exactly as GLPK overshot). *)

(** {1 Table II — benchmark characteristics} *)

type table2_row = {
  t2_name : string;
  cells : int;
  ffs : int;
  nets : int;
  pl : float;  (** Average source-sink path length of a conventional zero-skew clock tree, µm. *)
  rings : int;
}

val table2 : ?benches:Bench_suite.bench list -> unit -> table2_row list * Rc_obs.Report.table

(** {1 Tables III-VII — flow results} *)

val table3 : suite_entry list -> Rc_obs.Report.table
(** Base case (stage 1-3) metrics: AFD, tapping/signal/total WL, clock/
    signal/total power, CPU. *)

val table4 : suite_entry list -> Rc_obs.Report.table
(** Network-flow optimization after the stage 4-6 iterations, with
    improvements over the base case and the CPU split (flow vs placer). *)

val table5 : suite_entry list -> Rc_obs.Report.table
(** Max load capacitance: network flow vs ILP (AFD, cap, total WL, CPU).
    Rows are omitted for entries without an ILP run. *)

val table6 : suite_entry list -> Rc_obs.Report.table
(** Power dissipation for both formulations, each followed by its
    improvement vs the base case. *)

val table7 : suite_entry list -> Rc_obs.Report.table
(** Wirelength-capacitance product comparison. *)

(** {1 Fig. 2 — the tapping-delay curve} *)

val fig2 : unit -> (float * float) list * string
(** Sample [t_f(x)] of Eq. 1 at 81 points along one ring segment for a
    representative flip-flop, and solve the four target cases; returns
    the curve points and a small report locating each case's tap. *)
