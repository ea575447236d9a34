(** The paper-table report behind [rotary_cli report]: run
    {!Experiments.run_suite} per circuit (the netflow flow plus the ILP
    on its final state) with the metrics registry enabled, and assemble an
    {!Rc_obs.Report.doc} with the paper's headline tables —
    skew-scheduling slack, tapping wirelength / ring load, the
    Table-I-style ILP-vs-greedy comparison — plus the solver metrics
    behind them (CG iterations, simplex pivots, netflow augmentations,
    Eq. 1 tapping-case distribution, STA cone sizes).

    Circuits run sequentially (the kernels inside each flow still use
    the domain pool), so per-circuit metric attribution is exact and the
    document is bit-identical for any job count; only wall-clock columns
    vary, and they are omitted with [~timings:false]. *)

type circuit_report = {
  bench : Bench_suite.bench;
  outcome : Flow.outcome;
      (** The full six-stage flow in netflow mode. *)
  ilp_result : Rc_assign.Assign.t;
      (** Section VI min-max-load ILP heuristic on the final placement. *)
  ilp_stats : Rc_assign.Assign.ilp_stats;
  metrics : Rc_obs.Metrics.snapshot;
      (** Solver-metric delta attributed to this circuit. *)
}

val collect : ?benches:Bench_suite.bench list -> unit -> circuit_report list
(** Run every benchmark (default {!Bench_suite.all}) sequentially with
    metrics recording enabled (the previous enabled state is restored
    afterwards, also on exceptions). *)

val build : ?timings:bool -> circuit_report list -> Rc_obs.Report.doc
(** Assemble the document. [timings] (default [true]) controls the
    wall-clock columns and timer metrics — pass [false] for
    reproducible output (golden tests, cross-job comparisons). *)

val json_of : Rc_obs.Report.doc -> Rc_util.Json.t
(** {!Rc_obs.Report.to_json} plus the [schema_version] field. *)
