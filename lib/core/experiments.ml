module R = Rc_obs.Report

type suite_entry = {
  bench : Bench_suite.bench;
  netflow : Flow.outcome;
  ilp : (Rc_assign.Assign.t * Rc_assign.Assign.ilp_stats) option;
}

let log_progress log fmt =
  if log then Printf.eprintf (fmt ^^ "\n%!") else Printf.ifprintf stderr fmt

(* The suite arms (one per circuit: the network-flow run plus the
   optional ILP re-assignment that depends on it) are independent, so
   they fan out across the domain pool; results come back in bench
   order, and each run's trace events are tagged with its arm, so suite
   output is identical for any job count. *)
let run_suite ?(benches = Bench_suite.all) ?(with_ilp = true) ?(log = false) () =
  Rc_par.Pool.map_list
    (fun bench ->
      log_progress log "[suite] %s: network-flow flow..." bench.Bench_suite.bname;
      let arm = bench.Bench_suite.bname ^ "/netflow" in
      let netflow = Flow.run ~arm (Flow.default_config ~mode:Flow.Netflow bench) in
      let ilp =
        if with_ilp then begin
          log_progress log "[suite] %s: ILP assignment on the final state..."
            bench.Bench_suite.bname;
          let ffs, _ = Flow.ff_index netflow.Flow.netlist in
          let ff_positions = Array.map (fun c -> netflow.Flow.positions.(c)) ffs in
          Some
            (Rc_assign.Assign.by_ilp ~candidates:netflow.Flow.cfg.Flow.candidates
               netflow.Flow.cfg.Flow.tech netflow.Flow.rings ~ff_positions
               ~targets:netflow.Flow.skews)
        end
        else None
      in
      { bench; netflow; ilp })
    benches

(* ---- Table I --------------------------------------------------------- *)

type table1_row = {
  t1_name : string;
  greedy_ig : float;
  greedy_cpu : float;
  bb_ig : float;
  bb_cpu : float;
  bb_optimal : bool;
}

(* signed percentage cell in the paper's sign convention: positive when
   [to_] is smaller than [from] *)
let imp from to_ = R.Pct (Rc_util.Stats.pct_improvement ~from ~to_)

type stage2 = {
  tech : Rc_tech.Tech.t;
  rings : Rc_rotary.Ring_array.t;
  problem : Rc_skew.Skew_problem.t;
  ff_positions : Rc_geom.Point.t array;
  targets : float array;
}

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
  let schedule =
    match Rc_skew.Max_slack.solve_graph problem with
    | Some s -> s
    | None -> failwith "Experiments: scheduling infeasible"
  in
  let ffs, _ = Flow.ff_index netlist in
  let ff_positions = Array.map (fun c -> placed.Rc_place.Qplace.positions.(c)) ffs in
  { tech; rings; problem; ff_positions; targets = schedule.Rc_skew.Max_slack.skews }

let table1 ?(benches = Bench_suite.all) ?(bb_seconds = 120.0) () =
  let rows =
    List.map
      (fun bench ->
        let { tech; rings; ff_positions; targets; _ } = stage2_state bench in
        let _, greedy =
          Rc_assign.Assign.by_ilp tech rings ~ff_positions ~targets
        in
        let limits = { Rc_ilp.Branch_bound.max_nodes = 500_000; max_seconds = bb_seconds } in
        let _, bb =
          Rc_assign.Assign.by_branch_bound ~limits tech rings ~ff_positions ~targets
        in
        {
          t1_name = bench.Bench_suite.bname;
          greedy_ig = greedy.Rc_assign.Assign.integrality_gap;
          greedy_cpu = greedy.Rc_assign.Assign.elapsed_s;
          bb_ig = bb.Rc_assign.Assign.bb_gap;
          bb_cpu = bb.Rc_assign.Assign.bb_elapsed_s;
          bb_optimal = bb.Rc_assign.Assign.proved_optimal;
        })
      benches
  in
  let bb_ig r = if Float.is_nan r.bb_ig then R.Str "no soln" else R.Float (r.bb_ig, 2) in
  let status r =
    if r.bb_optimal then "optimal" else if Float.is_nan r.bb_ig then "budget, none" else "budget, best"
  in
  ( rows,
    {
      R.title =
        Printf.sprintf
          "Table I: IG of greedy rounding and generic ILP solver (B&B, %.0f s budget)" bb_seconds;
      columns = [ "Circuit"; "Greedy IG"; "Greedy CPU(s)"; "B&B IG"; "B&B CPU(s)"; "B&B status" ];
      rows =
        List.map
          (fun r ->
            [ R.Str r.t1_name; R.Float (r.greedy_ig, 2); R.Float (r.greedy_cpu, 2); bb_ig r;
              R.Float (r.bb_cpu, 2); R.Str (status r) ])
          rows;
    } )

(* ---- Table II -------------------------------------------------------- *)

type table2_row = {
  t2_name : string;
  cells : int;
  ffs : int;
  nets : int;
  pl : float;
  rings : int;
}

let table2 ?(benches = Bench_suite.all) () =
  let tech = Rc_tech.Tech.default in
  let rows =
    List.map
      (fun bench ->
        let netlist = Bench_suite.netlist bench in
        let chip = Bench_suite.chip bench in
        let placed = Rc_place.Qplace.initial netlist ~chip in
        let ffs = Rc_netlist.Netlist.flip_flops netlist in
        let sinks =
          Array.to_list
            (Array.map
               (fun c -> (placed.Rc_place.Qplace.positions.(c), tech.Rc_tech.Tech.c_ff))
               ffs)
        in
        let tree = Rc_ctree.Ctree.build tech ~sinks in
        let stats = Rc_ctree.Ctree.stats tree in
        {
          t2_name = bench.Bench_suite.bname;
          cells = Array.length (Rc_netlist.Netlist.logic_cells netlist);
          ffs = Array.length ffs;
          nets = Rc_netlist.Netlist.n_nets netlist;
          pl = stats.Rc_ctree.Ctree.avg_path_length;
          rings = bench.Bench_suite.ring_grid * bench.Bench_suite.ring_grid;
        })
      benches
  in
  ( rows,
    {
      R.title = "Table II: test cases (PL = avg source-sink path in a zero-skew clock tree)";
      columns = [ "Circuit"; "#Cells"; "#Flip-flops"; "#Nets"; "PL(um)"; "#Rings" ];
      rows =
        List.map
          (fun r ->
            [ R.Str r.t2_name; R.Int r.cells; R.Int r.ffs; R.Int r.nets; R.Float (r.pl, 0);
              R.Int r.rings ])
          rows;
    } )

(* ---- Tables III-VII -------------------------------------------------- *)

let name e = R.Str e.bench.Bench_suite.bname

let table3 suite =
  {
    R.title = "Table III: base case (stages 1-3, network flow), wirelength um, power mW";
    columns =
      [ "Circuit"; "AFD"; "Tap. WL"; "Signal WL"; "Tot. WL"; "Clock Pwr"; "Signal Pwr"; "Tot. Pwr";
        "CPU(s)" ];
    rows =
      List.map
        (fun e ->
          let b = e.netflow.Flow.base in
          [ name e; R.Float (b.Flow.afd, 1); R.Float (b.Flow.tapping_wl, 0);
            R.Float (b.Flow.signal_wl, 0); R.Float (b.Flow.total_wl, 0); R.Float (b.Flow.clock_mw, 2);
            R.Float (b.Flow.signal_mw, 2); R.Float (b.Flow.total_mw, 2);
            R.Float (e.netflow.Flow.cpu_flow_s +. e.netflow.Flow.cpu_placer_s, 1) ])
        suite;
  }

let table4 suite =
  {
    R.title =
      "Table IV: network-flow optimization after stage 4-6 iterations (improvement vs base)";
    columns =
      [ "Circuit"; "AFD"; "Tap. WL"; "Tap Imp"; "Signal WL"; "Sig Imp"; "Tot. WL"; "Tot Imp";
        "CPU flow(s)"; "CPU placer(s)" ];
    rows =
      List.map
        (fun e ->
          let b = e.netflow.Flow.base and f = e.netflow.Flow.final in
          [ name e; R.Float (f.Flow.afd, 1); R.Float (f.Flow.tapping_wl, 0);
            imp b.Flow.tapping_wl f.Flow.tapping_wl; R.Float (f.Flow.signal_wl, 0);
            imp b.Flow.signal_wl f.Flow.signal_wl; R.Float (f.Flow.total_wl, 0);
            imp b.Flow.total_wl f.Flow.total_wl; R.Float (e.netflow.Flow.cpu_flow_s, 1);
            R.Float (e.netflow.Flow.cpu_placer_s, 1) ])
        suite;
  }

(* Tables V-VII: one row per entry with an ILP run, from the entry, the
   ILP assignment and its stats, and the ILP's total wirelength (the
   flow's final signal nets plus the ILP's taps) *)
let ilp_rows suite row =
  List.filter_map
    (fun e ->
      Option.map
        (fun ((ilp : Rc_assign.Assign.t), stats) ->
          row e ilp stats (e.netflow.Flow.final.Flow.signal_wl +. ilp.Rc_assign.Assign.total_cost))
        e.ilp)
    suite

let table5 suite =
  {
    R.title =
      "Table V: max load capacitance (fF), network flow vs ILP formulation on the final state \
       (improvements vs network flow)";
    columns =
      [ "Circuit"; "NF Cap"; "NF AFD"; "ILP AFD"; "AFD Imp"; "ILP Cap"; "Cap Imp"; "ILP Tot WL";
        "WL Imp"; "ILP CPU(s)" ];
    rows =
      ilp_rows suite (fun e ilp (stats : Rc_assign.Assign.ilp_stats) ilp_tot ->
          let nf = e.netflow.Flow.final in
          let n_ffs = Rc_netlist.Netlist.n_ffs e.netflow.Flow.netlist in
          let ilp_afd = ilp.Rc_assign.Assign.total_cost /. float_of_int (max n_ffs 1) in
          [ name e; R.Float (nf.Flow.max_load_ff, 1); R.Float (nf.Flow.afd, 1);
            R.Float (ilp_afd, 1); imp nf.Flow.afd ilp_afd; R.Float (ilp.Rc_assign.Assign.max_load, 1);
            imp nf.Flow.max_load_ff ilp.Rc_assign.Assign.max_load; R.Float (ilp_tot, 0);
            imp nf.Flow.total_wl ilp_tot; R.Float (stats.Rc_assign.Assign.elapsed_s, 2) ]);
  }

let table6 suite =
  {
    R.title = "Table VI: power dissipation (mW) for network flow and ILP formulations vs base";
    columns =
      [ "Circuit"; "NF Clock"; "NF Clock Imp"; "NF Signal"; "NF Signal Imp"; "NF Total";
        "NF Total Imp"; "ILP Clock"; "ILP Clock Imp"; "ILP Signal"; "ILP Signal Imp"; "ILP Total";
        "ILP Total Imp" ];
    rows =
      ilp_rows suite (fun e ilp _ _ ->
          let b = e.netflow.Flow.base and nf = e.netflow.Flow.final in
          let ilp_clock =
            Rc_power.Power.clock_power_mw e.netflow.Flow.cfg.Flow.tech
              ~tapping_wirelength:ilp.Rc_assign.Assign.total_cost
              ~n_ffs:(Rc_netlist.Netlist.n_ffs e.netflow.Flow.netlist)
          in
          (* same placement, same signal net *)
          let ilp_signal = nf.Flow.signal_mw in
          let ilp_total = ilp_clock +. ilp_signal in
          (* each power with its improvement over the base case *)
          let power base v = [ R.Float (v, 2); imp base v ] in
          List.concat
            [ [ name e ]; power b.Flow.clock_mw nf.Flow.clock_mw;
              power b.Flow.signal_mw nf.Flow.signal_mw; power b.Flow.total_mw nf.Flow.total_mw;
              power b.Flow.clock_mw ilp_clock; power b.Flow.signal_mw ilp_signal;
              power b.Flow.total_mw ilp_total ]);
  }

let table7 suite =
  {
    R.title = "Table VII: wirelength-capacitance product (um x pF; lower is better)";
    columns = [ "Circuit"; "Network Flow WCP"; "ILP WCP"; "Imp" ];
    rows =
      ilp_rows suite (fun e ilp _ ilp_tot ->
          let nf = e.netflow.Flow.final in
          let wcp wl cap = wl *. (cap /. 1000.0) in
          let nf_wcp = wcp nf.Flow.total_wl nf.Flow.max_load_ff in
          let ilp_wcp = wcp ilp_tot ilp.Rc_assign.Assign.max_load in
          [ name e; R.Float (nf_wcp, 1); R.Float (ilp_wcp, 1); imp nf_wcp ilp_wcp ]);
  }

(* ---- Fig. 2 ---------------------------------------------------------- *)

let fig2 () =
  let samples = 81 in
  let tech = Rc_tech.Tech.default in
  let ring =
    Rc_rotary.Ring.make ~id:0
      ~rect:(Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:600.0 ~ymax:600.0)
      ~clockwise:true ~t_ref:0.0 ~period:1000.0
  in
  let ff = Rc_geom.Point.make 350.0 820.0 in
  let curve = Rc_rotary.Tapping.curve tech ring ~segment:0 ~ff ~samples in
  let tmin = List.fold_left (fun acc (_, t) -> Float.min acc t) infinity curve in
  let tmax = List.fold_left (fun acc (_, t) -> Float.max acc t) neg_infinity curve in
  (* the paper's four cases relative to the curve extremes *)
  let cases =
    [
      ("t_f1 (case 1: below curve, +kT shift)", tmin +. 50.0 -. 1000.0);
      ("t_f2 (case 2: two roots, shorter stub)", tmin +. ((tmax -. tmin) *. 0.35));
      ("t_f3 (case 3: near-tangent point)", tmin +. 0.5);
      ("t_f4 (case 4: above curve, snaking)", tmax +. 40.0);
    ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fig. 2: t_f(x) on the top segment for a flip-flop at (350, 820), ring 600 um\n\
       \  curve: %d samples, min %.2f ps at the kink region, max %.2f ps\n"
       samples tmin tmax);
  List.iter
    (fun (label, target) ->
      let tap =
        Rc_rotary.Tapping.solve_on_segment tech ring ~segment:0 ~conductor:Rc_rotary.Ring.Outer
          ~ff ~target
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-42s target %8.2f ps -> tap x=%6.1f um, stub %7.1f um%s%s\n" label
           target
           (tap.Rc_rotary.Tapping.point.Rc_geom.Point.x)
           tap.Rc_rotary.Tapping.wirelength
           (if tap.Rc_rotary.Tapping.snaked then ", snaked" else "")
           (if tap.Rc_rotary.Tapping.periods_shifted <> 0 then
              Printf.sprintf ", shifted %+dT" tap.Rc_rotary.Tapping.periods_shifted
            else "")))
    cases;
  Buffer.add_string buf "  x(um)    t_f(ps)\n";
  List.iteri
    (fun i (x, t) ->
      if i mod 10 = 0 then Buffer.add_string buf (Printf.sprintf "  %6.1f  %8.3f\n" x t))
    curve;
  (curve, Buffer.contents buf)
