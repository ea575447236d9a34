(* Tests for the variation-analysis substrate (Monte-Carlo skew spread). *)

open Rc_variation

let tech = Rc_tech.Tech.default

let tree64 =
  lazy
    (let rng = Rc_util.Rng.create 3 in
     let sinks =
       List.init 64 (fun _ ->
           (Rc_geom.Point.make (Rc_util.Rng.float rng 2000.0) (Rc_util.Rng.float rng 2000.0), 25.0))
     in
     Rc_ctree.Ctree.build tech ~sinks)

let test_perturbed_identity () =
  let tree = Lazy.force tree64 in
  let a = Rc_ctree.Ctree.sink_delays tree in
  let b = Rc_ctree.Ctree.sink_delays_perturbed tree ~edge_factor:(fun _ -> 1.0) in
  Alcotest.(check bool) "factor 1 reproduces nominal" true
    (Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b)

let test_perturbed_scales () =
  let tree = Lazy.force tree64 in
  let a = Rc_ctree.Ctree.sink_delays tree in
  let b = Rc_ctree.Ctree.sink_delays_perturbed tree ~edge_factor:(fun _ -> 2.0) in
  Alcotest.(check bool) "uniform factor scales delays" true
    (Array.for_all2 (fun x y -> Float.abs ((2.0 *. x) -. y) < 1e-6) a b)

let test_tree_skew_zero_sigma () =
  let model = { Variation.default_model with Variation.sigma_corr = 0.0; sigma_wire = 0.0; trials = 10 } in
  let s = Variation.tree_skew model (Lazy.force tree64) in
  Alcotest.(check (float 1e-9)) "no variation, no spread" 0.0 s.Variation.mean_spread

let test_tree_skew_grows_with_sigma () =
  let m1 = { Variation.default_model with Variation.sigma_wire = 0.05; trials = 200 } in
  let m2 = { Variation.default_model with Variation.sigma_wire = 0.20; trials = 200 } in
  let s1 = Variation.tree_skew m1 (Lazy.force tree64) in
  let s2 = Variation.tree_skew m2 (Lazy.force tree64) in
  Alcotest.(check bool)
    (Printf.sprintf "spread grows: %.2f < %.2f" s1.Variation.mean_spread s2.Variation.mean_spread)
    true
    (s1.Variation.mean_spread < s2.Variation.mean_spread)

let test_tree_skew_deterministic () =
  let m = { Variation.default_model with Variation.trials = 50 } in
  let a = Variation.tree_skew m (Lazy.force tree64) in
  let b = Variation.tree_skew m (Lazy.force tree64) in
  Alcotest.(check (float 1e-12)) "same seed, same result" a.Variation.mean_spread
    b.Variation.mean_spread

let test_rotary_less_than_tree_when_stubs_short () =
  (* rotary sinks with short stubs and strong ring averaging must beat a
     tree whose paths are long *)
  let model = { Variation.default_model with Variation.trials = 300 } in
  let tree = Variation.tree_skew model (Lazy.force tree64) in
  let sinks = Array.init 64 (fun i -> { Variation.ring_delay = 30.0 +. float_of_int i; stub_delay = 2.0 }) in
  let rot = Variation.rotary_skew model sinks in
  Alcotest.(check bool)
    (Printf.sprintf "rotary %.2f < tree %.2f" rot.Variation.mean_spread tree.Variation.mean_spread)
    true
    (rot.Variation.mean_spread < tree.Variation.mean_spread)

let test_summary_order () =
  let m = { Variation.default_model with Variation.trials = 100 } in
  let s = Variation.tree_skew m (Lazy.force tree64) in
  Alcotest.(check bool) "mean <= p95 <= max" true
    (s.Variation.mean_spread <= s.Variation.p95_spread +. 1e-9
    && s.Variation.p95_spread <= s.Variation.max_spread +. 1e-9)

let test_report_renders () =
  let m = { Variation.default_model with Variation.trials = 20 } in
  let tree = Variation.tree_skew m (Lazy.force tree64) in
  let rot = Variation.rotary_skew m [| { Variation.ring_delay = 10.0; stub_delay = 1.0 } |] in
  Alcotest.(check bool) "report" true
    (String.length (Variation.compare_report ~tree ~rotary:rot) > 100)

let () =
  Alcotest.run "rc_variation"
    [
      ( "monte-carlo",
        [
          Alcotest.test_case "perturbed identity" `Quick test_perturbed_identity;
          Alcotest.test_case "perturbed scaling" `Quick test_perturbed_scales;
          Alcotest.test_case "zero sigma" `Quick test_tree_skew_zero_sigma;
          Alcotest.test_case "spread grows with sigma" `Quick test_tree_skew_grows_with_sigma;
          Alcotest.test_case "deterministic" `Quick test_tree_skew_deterministic;
          Alcotest.test_case "rotary beats long tree" `Quick
            test_rotary_less_than_tree_when_stubs_short;
          Alcotest.test_case "summary ordering" `Quick test_summary_order;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
    ]
