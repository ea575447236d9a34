(* Tests for Rc_skew: the three scheduling formulations. The key
   cross-checks: graph and LP engines agree on the max-slack optimum;
   schedules always satisfy Skew_problem.check; cost-driven refinement
   monotonically improves anchor deviation while staying feasible. *)

open Rc_skew

let check_float eps = Alcotest.(check (float eps))

(* a problem from (i, j, d_max, d_min) pairs, in list order *)
let problem ?(period = 1000.0) ?(t_setup = 40.0) ?(t_hold = 15.0) ~n pairs =
  let pairs = Array.of_list pairs in
  Skew_problem.make ~n
    ~src:(Array.map (fun (i, _, _, _) -> i) pairs)
    ~dst:(Array.map (fun (_, j, _, _) -> j) pairs)
    ~d_max:(Array.map (fun (_, _, d_max, _) -> d_max) pairs)
    ~d_min:(Array.map (fun (_, _, _, d_min) -> d_min) pairs)
    ~period ~t_setup ~t_hold

let pipeline_problem () =
  (* 0 -> 1 -> 2 with a loop 2 -> 0 *)
  problem ~n:3 [ (0, 1, 600.0, 400.0); (1, 2, 300.0, 100.0); (2, 0, 500.0, 350.0) ]

let test_problem_validation () =
  Alcotest.check_raises "bad index" (Invalid_argument "Skew_problem.make: pair index out of range")
    (fun () ->
      ignore (problem ~n:2 ~period:100.0 ~t_setup:1.0 ~t_hold:1.0 [ (0, 5, 1.0, 0.0) ]));
  Alcotest.check_raises "dmin > dmax" (Invalid_argument "Skew_problem.make: d_min > d_max")
    (fun () ->
      ignore (problem ~n:2 ~period:100.0 ~t_setup:1.0 ~t_hold:1.0 [ (0, 1, 1.0, 2.0) ]));
  Alcotest.check_raises "ragged arrays"
    (Invalid_argument "Skew_problem.make: pair arrays differ in length") (fun () ->
      ignore
        (Skew_problem.make ~n:2 ~src:[| 0; 1 |] ~dst:[| 1 |] ~d_max:[| 1.0 |] ~d_min:[| 0.0 |]
           ~period:100.0 ~t_setup:1.0 ~t_hold:1.0))

let test_upper_bound () =
  let pr = pipeline_problem () in
  (* per pair: (1000 - dmax - 40 + dmin - 15)/2 *)
  let expect =
    List.fold_left Float.min infinity
      [ (1000.0 -. 600.0 -. 40.0 +. 400.0 -. 15.0) /. 2.0;
        (1000.0 -. 300.0 -. 40.0 +. 100.0 -. 15.0) /. 2.0;
        (1000.0 -. 500.0 -. 40.0 +. 350.0 -. 15.0) /. 2.0 ]
  in
  check_float 1e-9 "two-cycle bound" expect (Skew_problem.slack_upper_bound pr)

let test_self_loop_bound () =
  let pr = problem ~n:1 [ (0, 0, 400.0, 50.0) ] in
  (* min(T - dmax - ts, dmin - th) = min(560, 35) *)
  check_float 1e-9 "self-loop caps slack" 35.0 (Skew_problem.slack_upper_bound pr);
  match Max_slack.solve_graph pr with
  | Some r -> check_float 0.01 "achieved" 35.0 r.Max_slack.slack
  | None -> Alcotest.fail "feasible"

let test_graph_engine_pipeline () =
  let pr = pipeline_problem () in
  match Max_slack.solve_graph pr with
  | None -> Alcotest.fail "feasible problem"
  | Some r ->
      Alcotest.(check bool) "beats zero skew" true
        (r.Max_slack.slack >= Max_slack.zero_skew_slack pr -. 1e-6);
      Alcotest.(check bool) "schedule satisfies constraints" true
        (Skew_problem.check pr ~slack:r.Max_slack.slack ~skews:r.Max_slack.skews);
      Alcotest.(check bool) "min-normalized" true
        (Array.exists (fun s -> Float.abs s < 1e-9) r.Max_slack.skews
        && Array.for_all (fun s -> s >= -1e-9) r.Max_slack.skews)

let test_graph_vs_lp () =
  let pr = pipeline_problem () in
  let g = Option.get (Max_slack.solve_graph pr) in
  let l = Option.get (Max_slack.solve_lp pr) in
  check_float 0.01 "same optimum" g.Max_slack.slack l.Max_slack.slack

let test_no_pairs () =
  let pr = problem ~n:3 [] in
  match Max_slack.solve_graph pr with
  | Some r -> Alcotest.(check bool) "unbounded slack" true (r.Max_slack.slack = infinity)
  | None -> Alcotest.fail "trivially feasible"

let anchors3 =
  [|
    { Cost_driven.t_c = 100.0; t_ci = 1.0; weight = 10.0 };
    { Cost_driven.t_c = 700.0; t_ci = 2.0; weight = 120.0 };
    { Cost_driven.t_c = 300.0; t_ci = 0.5; weight = 40.0 };
  |]

let test_cost_driven_minmax_feasible () =
  let pr = pipeline_problem () in
  match Cost_driven.solve_minmax_graph pr ~slack:0.0 ~anchors:anchors3 with
  | None -> Alcotest.fail "feasible at zero slack"
  | Some r ->
      Alcotest.(check bool) "timing constraints hold" true
        (Skew_problem.check pr ~slack:0.0 ~skews:r.Cost_driven.skews);
      (* window constraints hold at Delta *)
      Array.iteri
        (fun i a ->
          let d = r.Cost_driven.objective +. 1e-3 in
          Alcotest.(check bool) "upper window" true (r.Cost_driven.skews.(i) <= a.Cost_driven.t_c +. d);
          Alcotest.(check bool) "lower window" true
            (r.Cost_driven.skews.(i) >= a.Cost_driven.t_c +. (2.0 *. a.Cost_driven.t_ci) -. d))
        anchors3

let test_cost_driven_graph_vs_lp () =
  let pr = pipeline_problem () in
  let g = Option.get (Cost_driven.solve_minmax_graph pr ~slack:0.0 ~anchors:anchors3) in
  let l = Option.get (Reference_kernels.solve_minmax_lp pr ~slack:0.0 ~anchors:anchors3) in
  check_float 0.05 "same Delta" g.Cost_driven.objective l.Cost_driven.objective

let test_cost_driven_infeasible_slack () =
  let pr = pipeline_problem () in
  let too_much = Skew_problem.slack_upper_bound pr +. 10.0 in
  Alcotest.(check bool) "infeasible M detected" true
    (Cost_driven.solve_minmax_graph pr ~slack:too_much ~anchors:anchors3 = None)

let test_refine_improves () =
  let pr = pipeline_problem () in
  let r = Option.get (Cost_driven.solve_minmax_graph pr ~slack:0.0 ~anchors:anchors3) in
  let dev skews =
    Array.to_list
      (Array.mapi
         (fun i (a : Cost_driven.anchor) ->
           a.Cost_driven.weight *. Float.abs (skews.(i) -. (a.Cost_driven.t_c +. a.Cost_driven.t_ci)))
         anchors3)
    |> List.fold_left ( +. ) 0.0
  in
  let refined =
    Cost_driven.refine_toward_anchors pr ~slack:0.0 ~anchors:anchors3 ~skews:r.Cost_driven.skews
  in
  Alcotest.(check bool) "still feasible" true (Skew_problem.check pr ~slack:0.0 ~skews:refined);
  Alcotest.(check bool) "weighted deviation does not increase" true
    (dev refined <= dev r.Cost_driven.skews +. 1e-6)

let test_weighted_lp () =
  let pr = pipeline_problem () in
  match Cost_driven.solve_weighted_lp pr ~slack:0.0 ~anchors:anchors3 with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      Alcotest.(check bool) "feasible schedule" true
        (Skew_problem.check pr ~slack:0.0 ~skews:r.Cost_driven.skews);
      (* LP optimum is at most the refined coordinate-descent value *)
      let minmax = Option.get (Cost_driven.solve_minmax_graph pr ~slack:0.0 ~anchors:anchors3) in
      let refined =
        Cost_driven.refine_toward_anchors pr ~slack:0.0 ~anchors:anchors3
          ~skews:minmax.Cost_driven.skews
      in
      let dev =
        Array.to_list
          (Array.mapi
             (fun i (a : Cost_driven.anchor) ->
               a.Cost_driven.weight
               *. Float.abs (refined.(i) -. (a.Cost_driven.t_c +. a.Cost_driven.t_ci)))
             anchors3)
        |> List.fold_left ( +. ) 0.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "LP %.1f <= heuristic %.1f" r.Cost_driven.objective dev)
        true
        (r.Cost_driven.objective <= dev +. 1e-3)

(* randomized cross-validation: graph engine equals LP engine on random
   feasible problems *)
let random_problem rng n =
  let pairs = ref [] in
  for i = 0 to n - 2 do
    let d_min = Rc_util.Rng.float_in rng 20.0 200.0 in
    let d_max = d_min +. Rc_util.Rng.float_in rng 0.0 400.0 in
    pairs := (i, i + 1, d_max, d_min) :: !pairs;
    if Reference_kernels.coin rng then begin
      let d_min2 = Rc_util.Rng.float_in rng 20.0 200.0 in
      let d_max2 = d_min2 +. Rc_util.Rng.float_in rng 0.0 400.0 in
      pairs := (i + 1, Rc_util.Rng.int rng (i + 1), d_max2, d_min2) :: !pairs
    end
  done;
  problem ~n !pairs

let prop_graph_matches_lp =
  QCheck.Test.make ~name:"max-slack: graph engine matches LP engine" ~count:40
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 17) + 1) in
      let pr = random_problem rng n in
      match (Max_slack.solve_graph pr, Max_slack.solve_lp pr) with
      | Some g, Some l ->
          Float.abs (g.Max_slack.slack -. l.Max_slack.slack) < 0.05
          && Skew_problem.check pr ~slack:g.Max_slack.slack ~skews:g.Max_slack.skews
      | None, None -> true
      | _ -> false)

let test_weighted_mcf_matches_lp () =
  let pr = pipeline_problem () in
  (* integer weights so the MCF quantization is exact *)
  let anchors =
    [|
      { Cost_driven.t_c = 100.0; t_ci = 1.0; weight = 10.0 };
      { Cost_driven.t_c = 700.0; t_ci = 2.0; weight = 120.0 };
      { Cost_driven.t_c = 300.0; t_ci = 0.5; weight = 40.0 };
    |]
  in
  let lp = Option.get (Cost_driven.solve_weighted_lp pr ~slack:0.0 ~anchors) in
  let mcf = Option.get (Cost_driven.solve_weighted_mcf pr ~slack:0.0 ~anchors) in
  Alcotest.(check bool) "mcf schedule feasible" true
    (Skew_problem.check pr ~slack:0.0 ~skews:mcf.Cost_driven.skews);
  check_float 0.5 "same optimum as LP" lp.Cost_driven.objective mcf.Cost_driven.objective

let test_weighted_mcf_infeasible () =
  let pr = pipeline_problem () in
  let too_much = Skew_problem.slack_upper_bound pr +. 10.0 in
  Alcotest.(check bool) "infeasible slack detected" true
    (Cost_driven.solve_weighted_mcf pr ~slack:too_much ~anchors:anchors3 = None)

let prop_weighted_mcf_matches_lp =
  QCheck.Test.make ~name:"weighted-sum: MCF dual matches LP" ~count:40
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 41) + 11) in
      let pr = random_problem rng n in
      let anchors =
        Array.init n (fun _ ->
            {
              Cost_driven.t_c = float_of_int (Rc_util.Rng.int_in rng 0 1000);
              t_ci = float_of_int (Rc_util.Rng.int_in rng 0 5);
              weight = float_of_int (Rc_util.Rng.int_in rng 1 60);
            })
      in
      match
        ( Cost_driven.solve_weighted_lp pr ~slack:0.0 ~anchors,
          Cost_driven.solve_weighted_mcf pr ~slack:0.0 ~anchors )
      with
      | Some lp, Some mcf ->
          Skew_problem.check pr ~slack:0.0 ~skews:mcf.Cost_driven.skews
          && Float.abs (lp.Cost_driven.objective -. mcf.Cost_driven.objective) < 1.0
      | None, None -> true
      | _ -> false)

let prop_minmax_graph_matches_lp =
  QCheck.Test.make ~name:"cost-driven min-max: graph matches LP" ~count:30
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 29) + 7) in
      let pr = random_problem rng n in
      let anchors =
        Array.init n (fun _ ->
            {
              Cost_driven.t_c = Rc_util.Rng.float_in rng 0.0 1000.0;
              t_ci = Rc_util.Rng.float_in rng 0.0 5.0;
              weight = Rc_util.Rng.float_in rng 1.0 100.0;
            })
      in
      match
        ( Cost_driven.solve_minmax_graph pr ~slack:0.0 ~anchors,
          Reference_kernels.solve_minmax_lp pr ~slack:0.0 ~anchors )
      with
      | Some g, Some l -> Float.abs (g.Cost_driven.objective -. l.Cost_driven.objective) < 0.1
      | None, None -> true
      | _ -> false)

(* ---- frozen-graph searches and array refine vs the list references ---- *)

let bits = Array.map Int64.bits_of_float

(* a random problem whose pairs include self-loops (a state register
   feeding itself) and repeated (i, j) pairs *)
let random_problem_loops rng n =
  let pairs =
    List.init (Rc_util.Rng.int_in rng 0 (3 * n)) (fun _ ->
        let d_min = Rc_util.Rng.float_in rng 20.0 300.0 in
        let d_max = d_min +. Rc_util.Rng.float_in rng 0.0 500.0 in
        let j = Rc_util.Rng.int rng n in
        let i = Rc_util.Rng.int rng n in
        (i, j, d_max, d_min))
  in
  let pairs = match pairs with p :: _ when Reference_kernels.coin rng -> p :: pairs | _ -> pairs in
  problem ~n pairs

let random_anchors rng n =
  Array.init n (fun _ ->
      {
        Cost_driven.t_c = Rc_util.Rng.float_in rng 0.0 1000.0;
        t_ci = Rc_util.Rng.float_in rng 0.0 20.0;
        weight = Rc_util.Rng.float_in rng 0.0 60.0;
      })

let prop_refine_matches_reference =
  QCheck.Test.make ~name:"array refine is bit-identical to the list refine" ~count:200
    QCheck.(pair small_int (int_range 1 25))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 131) + 17) in
      let pr = random_problem_loops rng n in
      let anchors = random_anchors rng n in
      let skews = Array.init n (fun _ -> Rc_util.Rng.float_in rng (-500.0) 1500.0) in
      let slack = Rc_util.Rng.float_in rng (-50.0) 100.0 in
      bits (Cost_driven.refine_toward_anchors pr ~slack ~anchors ~skews)
      = bits (Reference_kernels.refine_toward_anchors pr ~slack ~anchors ~skews))

(* The array refine stops after a sweep that changes no target; the
   reference always runs its 8.  Over the property's problem family,
   some problems settle before sweep 8 (the stop is taken) and some
   still move at sweep 8 (it is not); both must match the reference. *)
let test_refine_settling_mix () =
  let settled = ref 0 and unsettled = ref 0 and mismatches = ref [] in
  for seed = 0 to 199 do
    let n = 1 + (seed mod 25) in
    let rng = Rc_util.Rng.create ((seed * 131) + 17) in
    let pr = random_problem_loops rng n in
    let anchors = random_anchors rng n in
    let skews = Array.init n (fun _ -> Rc_util.Rng.float_in rng (-500.0) 1500.0) in
    let slack = Rc_util.Rng.float_in rng (-50.0) 100.0 in
    let reference sweeps =
      bits (Reference_kernels.refine_toward_anchors ~sweeps pr ~slack ~anchors ~skews)
    in
    let full = reference 8 in
    if reference 6 = reference 7 then incr settled;
    if reference 7 <> full then incr unsettled;
    if bits (Cost_driven.refine_toward_anchors pr ~slack ~anchors ~skews) <> full then
      mismatches := seed :: !mismatches
  done;
  Alcotest.(check (list int)) "seeds differing from the 8-sweep reference" [] !mismatches;
  Printf.printf "settled before sweep 8: %d, still moving at sweep 8: %d\n" !settled !unsettled;
  Alcotest.(check bool) "some settle before sweep 8" true (!settled > 0);
  Alcotest.(check bool) "some still move at sweep 8" true (!unsettled > 0)

let prop_minmax_matches_reference =
  QCheck.Test.make ~name:"frozen min-max search is bit-identical to per-probe rebuilds"
    ~count:150
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 193) + 29) in
      let pr = random_problem_loops rng n in
      let anchors = random_anchors rng n in
      (* slack up to past the two-cycle bound: infeasible searches too *)
      let slack = Rc_util.Rng.float_in rng (-50.0) 250.0 in
      match
        ( Cost_driven.solve_minmax_graph pr ~slack ~anchors,
          Reference_kernels.solve_minmax_graph pr ~slack ~anchors )
      with
      | None, None -> true
      | Some r, Some (skews, objective) ->
          bits r.Cost_driven.skews = bits skews
          && Int64.bits_of_float r.Cost_driven.objective = Int64.bits_of_float objective
      | _ -> false)

let prop_max_slack_matches_reference =
  QCheck.Test.make ~name:"frozen max-slack search is bit-identical to per-probe rebuilds"
    ~count:150
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 37) + 41) in
      let pr = random_problem_loops rng n in
      match (Max_slack.solve_graph pr, Reference_kernels.solve_max_slack pr) with
      | Some r, Some (p, slack) ->
          let lo = Array.fold_left Float.min infinity p in
          bits r.Max_slack.skews = bits (Array.map (fun s -> s -. lo) p)
          && Int64.bits_of_float r.Max_slack.slack = Int64.bits_of_float slack
      | Some r, None -> Skew_problem.n_pairs pr = 0 && r.Max_slack.slack = infinity
      | None, None -> true
      | None, Some _ -> false)

let () =
  Alcotest.run "rc_skew"
    [
      ( "problem",
        [
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "two-cycle bound" `Quick test_upper_bound;
          Alcotest.test_case "self-loop bound" `Quick test_self_loop_bound;
        ] );
      ( "max_slack",
        [
          Alcotest.test_case "graph engine" `Quick test_graph_engine_pipeline;
          Alcotest.test_case "graph vs LP" `Quick test_graph_vs_lp;
          Alcotest.test_case "no pairs" `Quick test_no_pairs;
          QCheck_alcotest.to_alcotest prop_graph_matches_lp;
        ] );
      ( "cost_driven",
        [
          Alcotest.test_case "min-max feasibility" `Quick test_cost_driven_minmax_feasible;
          Alcotest.test_case "min-max graph vs LP" `Quick test_cost_driven_graph_vs_lp;
          Alcotest.test_case "infeasible prespecified slack" `Quick
            test_cost_driven_infeasible_slack;
          Alcotest.test_case "refinement improves" `Quick test_refine_improves;
          Alcotest.test_case "weighted LP" `Quick test_weighted_lp;
          Alcotest.test_case "weighted MCF dual vs LP" `Quick test_weighted_mcf_matches_lp;
          Alcotest.test_case "weighted MCF infeasible slack" `Quick test_weighted_mcf_infeasible;
          QCheck_alcotest.to_alcotest prop_minmax_graph_matches_lp;
          QCheck_alcotest.to_alcotest prop_weighted_mcf_matches_lp;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest prop_refine_matches_reference;
          Alcotest.test_case "refine settling mix" `Quick test_refine_settling_mix;
          QCheck_alcotest.to_alcotest prop_minmax_matches_reference;
          QCheck_alcotest.to_alcotest prop_max_slack_matches_reference;
        ] );
    ]
