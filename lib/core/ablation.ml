module R = Rc_obs.Report

let imp from to_ = R.Pct (Rc_util.Stats.pct_improvement ~from ~to_)

let pseudo_weight_schedule ?(bench = Bench_suite.tiny) () =
  let rows =
    List.map
      (fun (w, g) ->
        let cfg = { (Flow.default_config bench) with Flow.pseudo_weight = w; pseudo_growth = g } in
        let o = Flow.run cfg in
        let b = o.Flow.base and f = o.Flow.final in
        [
          R.Str (Printf.sprintf "w=%.2f growth=%.1f" w g);
          R.Float (f.Flow.afd, 1);
          imp b.Flow.tapping_wl f.Flow.tapping_wl;
          R.Pct (-.Rc_util.Stats.pct_improvement ~from:b.Flow.signal_wl ~to_:f.Flow.signal_wl);
        ])
      [ (0.05, 1.0); (0.35, 1.0); (0.35, 1.8); (1.0, 1.8); (3.0, 1.8) ]
  in
  {
    R.title = Printf.sprintf "Ablation: pseudo-net weight schedule (%s)" bench.Bench_suite.bname;
    columns = [ "Schedule"; "final AFD"; "tapping reduction"; "signal WL penalty" ];
    rows;
  }

let candidate_rings ?(bench = Bench_suite.s9234) () =
  let { Experiments.tech; rings; ff_positions; targets; _ } = Experiments.stage2_state bench in
  let rows =
    List.map
      (fun k ->
        let (a : Rc_assign.Assign.t), cpu =
          Rc_util.Timer.time (fun () ->
              Rc_assign.Assign.by_netflow ~candidates:k tech rings ~ff_positions ~targets)
        in
        [
          R.Int k;
          R.Float (a.Rc_assign.Assign.total_cost, 0);
          R.Float (a.Rc_assign.Assign.max_load, 1);
          R.Float (cpu, 3);
        ])
      [ 1; 2; 4; 6; 9; 16 ]
  in
  {
    R.title = Printf.sprintf "Ablation: candidate rings per flip-flop (%s)" bench.Bench_suite.bname;
    columns = [ "k nearest"; "tapping WL"; "max load fF"; "CPU(s)" ];
    rows;
  }

let skew_objectives ?(bench = Bench_suite.tiny) () =
  (* swap the stage-4 slot of the plan rather than re-branching on a
     behavior flag: both runs share every other stage implementation *)
  let run stage =
    let cfg = Flow.default_config bench in
    let plan = { (Flow.plan_of_config cfg) with Flow.cost_schedule = stage } in
    let o, cpu = Rc_util.Timer.time (fun () -> Flow.run ~plan cfg) in
    (o, cpu)
  in
  let minmax, t1 = run Flow_stages.cost_driven_minmax in
  let weighted, t2 = run Flow_stages.cost_driven_weighted in
  let row name (o : Flow.outcome) cpu =
    [
      R.Str name;
      R.Float (o.Flow.final.Flow.tapping_wl, 0);
      R.Float (o.Flow.final.Flow.afd, 1);
      R.Float (o.Flow.final.Flow.signal_wl, 0);
      R.Float (cpu, 2);
    ]
  in
  {
    R.title = Printf.sprintf "Ablation: stage-4 objective (%s)" bench.Bench_suite.bname;
    columns = [ "Objective"; "final tapping WL"; "final AFD"; "signal WL"; "CPU(s)" ];
    rows =
      [ row "min-max Delta (graph)" minmax t1; row "weighted-sum (MCF dual)" weighted t2 ];
  }

let incremental_engines ?(bench = Bench_suite.tiny) () =
  (* swap only the stage-6 slot: pseudo-net quadratic re-solve vs direct
     relocate-and-heal, under the same placement/assignment/scheduling
     stages; the trace supplies the per-category CPU split *)
  let run stage =
    let cfg = Flow.improved_config bench in
    let plan = { (Flow.plan_of_config cfg) with Flow.replace = stage } in
    Flow.run ~plan cfg
  in
  let rows =
    List.map
      (fun stage ->
        let o = run stage in
        [
          R.Str stage.Flow_stage.variant;
          R.Float (o.Flow.final.Flow.tapping_wl, 0);
          imp o.Flow.base.Flow.tapping_wl o.Flow.final.Flow.tapping_wl;
          R.Float (o.Flow.final.Flow.signal_wl, 0);
          R.Float (o.Flow.cpu_placer_s, 2);
          R.Float (o.Flow.cpu_flow_s, 2);
        ])
      [ Flow_stages.incremental_qplace; Flow_stages.incremental_relocate ]
  in
  {
    R.title = Printf.sprintf "Ablation: stage-6 slot (%s)" bench.Bench_suite.bname;
    columns =
      [ "Stage-6 variant"; "final tap WL"; "tap reduction"; "signal WL"; "CPU placer(s)";
        "CPU flow(s)" ];
    rows;
  }

let scheduling_engines ?(bench = Bench_suite.tiny) () =
  let { Experiments.problem; _ } = Experiments.stage2_state bench in
  let g, tg = Rc_util.Timer.time (fun () -> Rc_skew.Max_slack.solve_graph problem) in
  let l, tl = Rc_util.Timer.time (fun () -> Rc_skew.Max_slack.solve_lp problem) in
  let slack = function Some r -> r.Rc_skew.Max_slack.slack | None -> nan in
  {
    R.title =
      Printf.sprintf "Ablation: max-slack engine (%s, %d pairs)" bench.Bench_suite.bname
        (Rc_skew.Skew_problem.n_pairs problem);
    columns = [ "Engine"; "slack M (ps)"; "CPU(s)" ];
    rows =
      [
        [ R.Str "graph (SPFA binary search)"; R.Float (slack g, 3); R.Float (tg, 3) ];
        [ R.Str "LP (revised simplex)"; R.Float (slack l, 3); R.Float (tl, 3) ];
      ];
  }

let complementary_phase ?(bench = Bench_suite.s9234) () =
  let { Experiments.tech; rings; ff_positions; targets; _ } = Experiments.stage2_state bench in
  let cost use_complement =
    let acc = ref 0.0 in
    Array.iteri
      (fun i ff ->
        let ring =
          Rc_rotary.Ring_array.ring rings (Rc_rotary.Ring_array.containing_ring rings ff)
        in
        let tap = Rc_rotary.Tapping.solve ~use_complement tech ring ~ff ~target:targets.(i) in
        acc := !acc +. tap.Rc_rotary.Tapping.wirelength)
      ff_positions;
    !acc
  in
  let with_c = cost true and without_c = cost false in
  {
    R.title =
      Printf.sprintf "Ablation: complementary-phase tapping (%s, containing ring per FF)"
        bench.Bench_suite.bname;
    columns = [ "Mode"; "total tapping WL"; "vs both conductors" ];
    rows =
      [
        [ R.Str "both conductors (polarity flip)"; R.Float (with_c, 0); R.Pct nan ];
        [
          R.Str "outer conductor only";
          R.Float (without_c, 0);
          R.Pct (-.Rc_util.Stats.pct_improvement ~from:with_c ~to_:without_c);
        ];
      ];
  }

let all ?bench () =
  [
    pseudo_weight_schedule ?bench ();
    candidate_rings ();
    skew_objectives ?bench ();
    incremental_engines ?bench ();
    scheduling_engines ();
    complementary_phase ();
  ]
