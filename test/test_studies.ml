(* Integration tests for the rc_core study drivers: variation,
   clocking-scheme comparison, routing study and the Fig. 2 /
   table-rendering helpers they share. All on the tiny benchmark. *)

open Rc_core

let outcome = lazy (Flow.run (Flow.default_config Bench_suite.tiny))

let small_model =
  { Rc_variation.Variation.default_model with Rc_variation.Variation.trials = 60 }

let test_variation_study () =
  let r = Variation_study.run ~model:small_model (Lazy.force outcome) in
  Alcotest.(check bool) "tree spread positive" true
    (r.Variation_study.tree.Rc_variation.Variation.mean_spread > 0.0);
  Alcotest.(check bool) "rotary spread positive" true
    (r.Variation_study.rotary.Rc_variation.Variation.mean_spread > 0.0);
  (* rotary exposes only stubs + junction-relative arcs: nominal path is
     far shorter than the tree's *)
  Alcotest.(check bool) "report text" true (String.length r.Variation_study.report > 100)

let test_variation_rotary_beats_tree_relatively () =
  let r = Variation_study.run ~model:small_model (Lazy.force outcome) in
  Alcotest.(check bool)
    (Printf.sprintf "rotary relative %.3f < tree relative %.3f"
       r.Variation_study.rotary.Rc_variation.Variation.relative_spread
       r.Variation_study.tree.Rc_variation.Variation.relative_spread)
    true
    (r.Variation_study.rotary.Rc_variation.Variation.relative_spread
    < r.Variation_study.tree.Rc_variation.Variation.relative_spread)

let test_clocking_compare () =
  let rows, table = Clocking_compare.run (Lazy.force outcome) in
  let text = Rc_obs.Report.to_text table in
  Alcotest.(check int) "three schemes" 3 (List.length rows);
  let find s = List.find (fun r -> r.Clocking_compare.scheme = s) rows in
  let tree = find "zero-skew tree"
  and mesh = find "clock mesh"
  and rot = find "rotary (this flow)" in
  (* the paper's Section I claims *)
  Alcotest.(check bool) "mesh burns the most power" true
    (mesh.Clocking_compare.clock_power > tree.Clocking_compare.clock_power
    && mesh.Clocking_compare.clock_power > rot.Clocking_compare.clock_power);
  Alcotest.(check bool) "rotary switches the least capacitance" true
    (rot.Clocking_compare.clock_cap <= tree.Clocking_compare.clock_cap
    && rot.Clocking_compare.clock_cap <= mesh.Clocking_compare.clock_cap);
  Alcotest.(check bool) "mesh has the lowest spread" true
    (mesh.Clocking_compare.skew_spread <= rot.Clocking_compare.skew_spread);
  (* on the tiny die the tree's paths are only ~20 ps, so the absolute
     tree-vs-rotary spread claim emerges from s9234 upward (checked in
     the bench); here only require the same order of magnitude *)
  Alcotest.(check bool) "rotary spread same order as the tree's" true
    (rot.Clocking_compare.skew_spread < 3.0 *. tree.Clocking_compare.skew_spread);
  Alcotest.(check bool) "table renders" true (String.length text > 200)

let test_routing_study () =
  let r = Routing_study.run (Lazy.force outcome) in
  Alcotest.(check int) "no overflow on tiny" 0 r.Routing_study.overflow;
  Alcotest.(check bool) "routed >= hpwl" true
    (r.Routing_study.signal_routed >= 0.9 *. r.Routing_study.signal_hpwl);
  Alcotest.(check bool) "routed within 2x of steiner" true
    (r.Routing_study.signal_routed <= 2.0 *. r.Routing_study.signal_steiner +. 1000.0);
  Alcotest.(check bool) "clock stubs routed near estimate" true
    (r.Routing_study.clock_routed <= 2.0 *. r.Routing_study.clock_estimate +. 1000.0);
  Alcotest.(check bool) "congestion fraction sane" true
    (r.Routing_study.max_congestion >= 0.0 && r.Routing_study.max_congestion <= 5.0);
  Alcotest.(check bool) "report" true (String.length r.Routing_study.report > 100)

let test_ring_sweep_report_marks_best () =
  let points, best = Ring_sweep.sweep Bench_suite.tiny ~grids:[ 1; 2 ] in
  let text = Rc_obs.Report.to_text (Ring_sweep.report (points, best)) in
  Alcotest.(check bool) "star marks the winner" true
    (String.length text > 0
    &&
    let re = Printf.sprintf "%dx%d *" best.Ring_sweep.grid best.Ring_sweep.grid in
    let n = String.length text and m = String.length re in
    let rec go i = i + m <= n && (String.sub text i m = re || go (i + 1)) in
    go 0)

let () =
  Alcotest.run "rc_studies"
    [
      ( "variation",
        [
          Alcotest.test_case "study runs" `Slow test_variation_study;
          Alcotest.test_case "rotary beats tree relatively" `Slow
            test_variation_rotary_beats_tree_relatively;
        ] );
      ("clocking", [ Alcotest.test_case "three-way comparison" `Slow test_clocking_compare ]);
      ("routing", [ Alcotest.test_case "routing study" `Slow test_routing_study ]);
      ("sweep", [ Alcotest.test_case "report marks best" `Slow test_ring_sweep_report_marks_best ]);
    ]
