let pseudo_weight_schedule ?(bench = Bench_suite.tiny) () =
  let rows =
    List.map
      (fun (w, g) ->
        let cfg = { (Flow.default_config bench) with Flow.pseudo_weight = w; pseudo_growth = g } in
        let o = Flow.run cfg in
        let b = o.Flow.base and f = o.Flow.final in
        [
          Printf.sprintf "w=%.2f growth=%.1f" w g;
          Report.fmt_f f.Flow.afd;
          Report.fmt_pct (Report.pct_improvement ~from:b.Flow.tapping_wl ~to_:f.Flow.tapping_wl);
          Report.fmt_pct (-.Report.pct_improvement ~from:b.Flow.signal_wl ~to_:f.Flow.signal_wl);
        ])
      [ (0.05, 1.0); (0.35, 1.0); (0.35, 1.8); (1.0, 1.8); (3.0, 1.8) ]
  in
  Report.render
    ~title:
      (Printf.sprintf "Ablation: pseudo-net weight schedule (%s)" bench.Bench_suite.bname)
    ~header:[ "Schedule"; "final AFD"; "tapping reduction"; "signal WL penalty" ]
    rows

let stage2_state bench =
  let tech = Rc_tech.Tech.default in
  let netlist = Bench_suite.netlist bench in
  let chip = Bench_suite.chip bench in
  let rings =
    Rc_rotary.Ring_array.create ~period:tech.Rc_tech.Tech.clock_period ~chip
      ~grid:bench.Bench_suite.ring_grid ()
  in
  let placed = Rc_place.Qplace.initial netlist ~chip in
  let sta = Rc_timing.Sta.analyze tech netlist ~positions:placed.Rc_place.Qplace.positions in
  let problem = Flow.skew_problem_of_sta tech netlist sta in
  let schedule = Option.get (Rc_skew.Max_slack.solve_graph problem) in
  let ffs, _ = Flow.ff_index netlist in
  let ff_positions = Array.map (fun c -> placed.Rc_place.Qplace.positions.(c)) ffs in
  (tech, rings, problem, ff_positions, schedule.Rc_skew.Max_slack.skews)

let candidate_rings ?(bench = Bench_suite.s9234) () =
  let tech, rings, _, ff_positions, targets = stage2_state bench in
  let rows =
    List.map
      (fun k ->
        let (a : Rc_assign.Assign.t), cpu =
          Rc_util.Timer.time (fun () ->
              Rc_assign.Assign.by_netflow ~candidates:k tech rings ~ff_positions ~targets)
        in
        [
          string_of_int k;
          Report.fmt_f ~dp:0 a.Rc_assign.Assign.total_cost;
          Report.fmt_f ~dp:1 a.Rc_assign.Assign.max_load;
          Report.fmt_f ~dp:3 cpu;
        ])
      [ 1; 2; 4; 6; 9; 16 ]
  in
  Report.render
    ~title:(Printf.sprintf "Ablation: candidate rings per flip-flop (%s)" bench.Bench_suite.bname)
    ~header:[ "k nearest"; "tapping WL"; "max load fF"; "CPU(s)" ]
    rows

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
  Report.render
    ~title:(Printf.sprintf "Ablation: stage-4 objective (%s)" bench.Bench_suite.bname)
    ~header:[ "Objective"; "final tapping WL"; "final AFD"; "signal WL"; "CPU(s)" ]
    [
      [
        "min-max Delta (graph)";
        Report.fmt_f ~dp:0 minmax.Flow.final.Flow.tapping_wl;
        Report.fmt_f minmax.Flow.final.Flow.afd;
        Report.fmt_f ~dp:0 minmax.Flow.final.Flow.signal_wl;
        Report.fmt_f ~dp:2 t1;
      ];
      [
        "weighted-sum (MCF dual)";
        Report.fmt_f ~dp:0 weighted.Flow.final.Flow.tapping_wl;
        Report.fmt_f weighted.Flow.final.Flow.afd;
        Report.fmt_f ~dp:0 weighted.Flow.final.Flow.signal_wl;
        Report.fmt_f ~dp:2 t2;
      ];
    ]

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
          stage.Flow_stage.variant;
          Report.fmt_f ~dp:0 o.Flow.final.Flow.tapping_wl;
          Report.fmt_pct
            (Report.pct_improvement ~from:o.Flow.base.Flow.tapping_wl
               ~to_:o.Flow.final.Flow.tapping_wl);
          Report.fmt_f ~dp:0 o.Flow.final.Flow.signal_wl;
          Report.fmt_f ~dp:2 o.Flow.cpu_placer_s;
          Report.fmt_f ~dp:2 o.Flow.cpu_flow_s;
        ])
      [ Flow_stages.incremental_qplace; Flow_stages.incremental_relocate ]
  in
  Report.render
    ~title:(Printf.sprintf "Ablation: stage-6 slot (%s)" bench.Bench_suite.bname)
    ~header:
      [ "Stage-6 variant"; "final tap WL"; "tap reduction"; "signal WL"; "CPU placer(s)";
        "CPU flow(s)" ]
    rows

let scheduling_engines ?(bench = Bench_suite.tiny) () =
  let _, _, problem, _, _ = stage2_state bench in
  let g, tg = Rc_util.Timer.time (fun () -> Rc_skew.Max_slack.solve_graph problem) in
  let l, tl = Rc_util.Timer.time (fun () -> Rc_skew.Max_slack.solve_lp problem) in
  let slack = function Some r -> r.Rc_skew.Max_slack.slack | None -> nan in
  Report.render
    ~title:
      (Printf.sprintf "Ablation: max-slack engine (%s, %d pairs)" bench.Bench_suite.bname
         (Rc_skew.Skew_problem.n_pairs problem))
    ~header:[ "Engine"; "slack M (ps)"; "CPU(s)" ]
    [
      [ "graph (SPFA binary search)"; Report.fmt_f ~dp:3 (slack g); Report.fmt_f ~dp:3 tg ];
      [ "LP (revised simplex)"; Report.fmt_f ~dp:3 (slack l); Report.fmt_f ~dp:3 tl ];
    ]

let complementary_phase ?(bench = Bench_suite.s9234) () =
  let tech, rings, _, ff_positions, targets = stage2_state bench in
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
  Report.render
    ~title:
      (Printf.sprintf "Ablation: complementary-phase tapping (%s, containing ring per FF)"
         bench.Bench_suite.bname)
    ~header:[ "Mode"; "total tapping WL"; "vs both conductors" ]
    [
      [ "both conductors (polarity flip)"; Report.fmt_f ~dp:0 with_c; "--" ];
      [
        "outer conductor only";
        Report.fmt_f ~dp:0 without_c;
        Report.fmt_pct (-.Report.pct_improvement ~from:with_c ~to_:without_c);
      ];
    ]

let all ?bench () =
  String.concat "\n\n"
    [
      pseudo_weight_schedule ?bench ();
      candidate_rings ();
      skew_objectives ?bench ();
      incremental_engines ?bench ();
      scheduling_engines ();
      complementary_phase ();
    ]
