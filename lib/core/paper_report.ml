(* The paper-table report: run the experiment suite (Experiments.run_suite:
   the netflow flow plus the ILP on its final state) per circuit, collect
   per-circuit solver-metric deltas, and assemble a Rc_obs.Report document
   with the paper's headline tables (skew-scheduling slack, tapping
   wirelength / ring load, Table-I-style ILP vs greedy rounding) plus the
   solver metrics behind them.

   Determinism: circuits run sequentially here (the kernels inside each
   flow still fan out over the domain pool), so per-circuit metric
   attribution is exact and — because every reported metric is an
   integer counter/histogram merge or a value computed by the
   deterministic solvers — the whole document is bit-identical for any
   job count.  Wall-clock columns are only emitted with [~timings:true]
   (the default); golden tests use [~timings:false]. *)

module Metrics = Rc_obs.Metrics
module R = Rc_obs.Report

type circuit_report = {
  bench : Bench_suite.bench;
  outcome : Flow.outcome;  (* full six-stage flow, netflow assignment *)
  ilp_result : Rc_assign.Assign.t;  (* min-max-load ILP on the final placement *)
  ilp_stats : Rc_assign.Assign.ilp_stats;
  metrics : Metrics.snapshot;  (* metric delta attributed to this circuit *)
}

let collect ?(benches = Bench_suite.all) () =
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled was_enabled)
    (fun () ->
      List.map
        (fun bench ->
          let before = Metrics.snapshot () in
          (* the suite's two arms: the netflow flow, then the Table-I
             min-max-load ILP on its final placement and schedule *)
          let e = List.hd (Experiments.run_suite ~benches:[ bench ] ()) in
          let after = Metrics.snapshot () in
          let ilp_result, ilp_stats = Option.get e.Experiments.ilp in
          {
            bench;
            outcome = e.Experiments.netflow;
            ilp_result;
            ilp_stats;
            metrics = Metrics.diff ~before ~after;
          })
        benches)

(* ---- metric lookup helpers ------------------------------------------- *)

let metric_int snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Count n) -> n
  | Some (Metrics.Hist { n; _ }) -> n
  | _ -> 0

let hist_mean snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Hist { n; sum; _ }) when n > 0 ->
      float_of_int sum /. float_of_int n
  | _ -> nan

(* ---- the document ----------------------------------------------------- *)

let circuits_section reports =
  let rows =
    List.map
      (fun r ->
        let o = r.outcome in
        let n_logic, n_ffs = Bench_suite.profile r.bench in
        [
          R.Str r.bench.Bench_suite.bname;
          R.Int n_logic;
          R.Int n_ffs;
          R.Int (r.bench.Bench_suite.ring_grid * r.bench.Bench_suite.ring_grid);
          R.Int o.Flow.n_pairs;
          R.Float (o.Flow.slack, 1);
          R.Float (o.Flow.stage4_slack, 1);
        ])
      reports
  in
  R.section "Circuits and skew scheduling"
    ~prose:
      "Table II circuit profile plus the scheduling outcome: the number of \
       sequentially adjacent pairs seen by the skew LPs, the stage-2 maximum \
       slack M* (ps), and the prespecified slack used by stage-4 cost-driven \
       rescheduling."
    ~tables:
      [
        {
          R.title = "";
          columns =
            [ "Circuit"; "Cells"; "FFs"; "Rings"; "Adj pairs"; "M* (ps)"; "Stage-4 M (ps)" ];
          rows;
        };
      ]

let tapping_section reports =
  let rows =
    List.map
      (fun r ->
        let o = r.outcome in
        let base = o.Flow.base and final = o.Flow.final in
        [
          R.Str r.bench.Bench_suite.bname;
          R.Float (base.Flow.tapping_wl, 0);
          R.Float (final.Flow.tapping_wl, 0);
          R.Pct
            (Rc_util.Stats.pct_improvement ~from:base.Flow.tapping_wl
               ~to_:final.Flow.tapping_wl);
          R.Pct
            (-.Rc_util.Stats.pct_improvement ~from:base.Flow.signal_wl
                ~to_:final.Flow.signal_wl);
          R.Float (final.Flow.afd, 2);
          R.Float (final.Flow.max_load_ff, 1);
        ])
      reports
  in
  R.section "Tapping wirelength and ring load"
    ~prose:
      "Stage 3-6 iterations versus the base case (the state right after the \
       first assignment): total tapping wirelength (um) and its reduction, the \
       signal-wirelength impact paid for it, the final average flip-flop \
       distance (um), and the maximum ring load (fF) under the network-flow \
       assignment."
    ~tables:
      [
        {
          R.title = "";
          columns =
            [
              "Circuit";
              "Base tap WL";
              "Final tap WL";
              "Tap WL cut";
              "Signal WL impact";
              "AFD (um)";
              "NF max load (fF)";
            ];
          rows;
        };
      ]

let ilp_section ~timings reports =
  let rows =
    List.map
      (fun r ->
        let s = r.ilp_stats in
        let nf_load = r.outcome.Flow.final.Flow.max_load_ff in
        let base =
          [
            R.Str r.bench.Bench_suite.bname;
            R.Float (s.Rc_assign.Assign.lp_optimum, 2);
            R.Float (s.Rc_assign.Assign.ilp_objective, 2);
            R.Float (s.Rc_assign.Assign.integrality_gap, 3);
            R.Int s.Rc_assign.Assign.lp_iterations;
            R.Float (nf_load, 1);
            R.Pct
              (Rc_util.Stats.pct_improvement ~from:nf_load
                 ~to_:r.ilp_result.Rc_assign.Assign.max_load);
          ]
        in
        if timings then base @ [ R.Float (s.Rc_assign.Assign.elapsed_s, 2) ] else base)
      reports
  in
  let columns =
    [
      "Circuit";
      "OPT(LP) (fF)";
      "SOLN(ILP) (fF)";
      "IG";
      "LP pivots";
      "NF max load (fF)";
      "Cap cut vs NF";
    ]
    @ (if timings then [ "CPU (s)" ] else [])
  in
  R.section "ILP vs greedy rounding (Table I)"
    ~prose:
      "The Section VI min-max-load formulation solved by LP relaxation + Fig. 5 \
       greedy rounding, on each circuit's final placement: the LP lower bound, \
       the rounded objective, the integrality gap IG = SOLN/OPT (Eq. 4), the \
       simplex pivot count of the relaxation, and the maximum-load reduction \
       against the network-flow assignment of the same placement."
    ~tables:[ { R.title = ""; columns; rows } ]

let solver_metrics_section reports =
  let rows =
    List.map
      (fun r ->
        let m = r.metrics in
        [
          R.Str r.bench.Bench_suite.bname;
          R.Int (metric_int m "sparse.cg.solves");
          R.Int (metric_int m "sparse.cg.iterations");
          R.Int (metric_int m "lp.simplex.pivots");
          R.Int (metric_int m "netflow.mcmf.augmentations");
          R.Int (metric_int m "assign.candidate_solves");
          R.Int (metric_int m "timing.sta.pairs");
          R.Float (hist_mean m "timing.sta.cone_sinks", 1);
        ])
      reports
  in
  let case_rows =
    List.map
      (fun r ->
        let m = r.metrics in
        let c1 = metric_int m "assign.tap.case1_period_shift"
        and c2 = metric_int m "assign.tap.case2_two_root"
        and c3 = metric_int m "assign.tap.case3_tangent"
        and c4 = metric_int m "assign.tap.case4_snaked" in
        let total = c1 + c2 + c3 + c4 in
        [
          R.Str r.bench.Bench_suite.bname;
          R.Int c1;
          R.Int c2;
          R.Int c3;
          R.Int c4;
          R.Pct
            (if total = 0 then nan
             else float_of_int c4 /. float_of_int total *. 100.0);
        ])
      reports
  in
  R.section "Solver metrics"
    ~prose:
      "Work done inside the solvers while producing the numbers above, from \
       the metrics registry (cumulative over all flow iterations of each \
       circuit, including the Table-I ILP solve). The tapping-case split \
       classifies every tap of every assignment built for the circuit by its \
       Eq. 1 solution case: case 1 period shift, case 2 two roots, case 3 \
       near-tangent, case 4 stub snaking."
    ~tables:
      [
        {
          R.title = "Solver work";
          columns =
            [
              "Circuit";
              "CG solves";
              "CG iters";
              "LP pivots";
              "NF augmentations";
              "Eq.1 solves";
              "STA pairs";
              "Mean cone sinks";
            ];
          rows;
        };
        {
          R.title = "Tapping-case distribution (Eq. 1)";
          columns =
            [ "Circuit"; "Case 1 shift"; "Case 2 two-root"; "Case 3 tangent"; "Case 4 snaked"; "Snaked" ];
          rows = case_rows;
        };
      ]
    ~data:
      [
        ( "metrics",
          Rc_util.Json.Obj
            (List.map
               (fun r -> (r.bench.Bench_suite.bname, Metrics.to_json r.metrics))
               reports) );
      ]

let build ?(timings = true) reports =
  let reports =
    if timings then reports
    else List.map (fun r -> { r with metrics = Metrics.strip_timers r.metrics }) reports
  in
  {
    R.title = "Rotary clocking: paper-table report";
    intro =
      "Generated by `rotary_cli report` from the integrated placement and skew \
       optimization flow (Venkataraman, Hu, Liu — DATE 2006). One full \
       six-stage netflow-mode flow per circuit, plus the Section VI min-max \
       ILP on each final placement. All numbers are deterministic and \
       identical for any --jobs value.";
    sections =
      [
        circuits_section reports;
        tapping_section reports;
        ilp_section ~timings reports;
        solver_metrics_section reports;
      ];
  }

let schema_version = 1

let json_of doc =
  let module J = Rc_util.Json in
  match R.to_json doc with
  | J.Obj fields -> J.Obj (("schema_version", J.Int schema_version) :: fields)
  | other -> other
