(* Skew scheduling walkthrough (Section VII):

   - a hand-built five-stage pipeline with a feedback loop;
   - max-slack scheduling (Eq. 5-7), graph engine vs LP engine;
   - cost-driven rescheduling toward rotary-ring anchor phases.

     dune exec examples/skew_scheduling.exe *)

open Rc_skew

let () =
  (* five flip-flops: a pipeline 0 -> 1 -> 2 -> 3 -> 4 with a loop
     4 -> 0; stage delays are deliberately unbalanced so zero skew is
     far from optimal *)
  let problem =
    Skew_problem.make ~n:5 ~src:[| 0; 1; 2; 3; 4 |] ~dst:[| 1; 2; 3; 4; 0 |]
      ~d_max:[| 700.0; 300.0; 600.0; 250.0; 450.0 |]
      ~d_min:[| 500.0; 150.0; 420.0; 120.0; 300.0 |]
      ~period:1000.0 ~t_setup:40.0 ~t_hold:15.0
  in

  Printf.printf "zero-skew slack      : %8.2f ps\n" (Max_slack.zero_skew_slack problem);
  Printf.printf "two-cycle upper bound: %8.2f ps\n\n" (Skew_problem.slack_upper_bound problem);

  let graph = Option.get (Max_slack.solve_graph problem) in
  let lp = Option.get (Max_slack.solve_lp problem) in
  Printf.printf "max-slack scheduling:\n";
  Printf.printf "  graph engine: M = %.3f ps, skews:" graph.Max_slack.slack;
  Array.iter (Printf.printf " %7.1f") graph.Max_slack.skews;
  Printf.printf "\n  LP engine   : M = %.3f ps, skews:" lp.Max_slack.slack;
  Array.iter (Printf.printf " %7.1f") lp.Max_slack.skews;
  Printf.printf "\n  (the two engines agree on the optimum; schedules may differ\n";
  Printf.printf "   by a feasible translation)\n\n";

  (* verify both schedules *)
  assert (Skew_problem.check problem ~slack:graph.Max_slack.slack ~skews:graph.Max_slack.skews);
  assert (Skew_problem.check problem ~slack:lp.Max_slack.slack ~skews:lp.Max_slack.skews);

  (* cost-driven rescheduling: each flip-flop has a preferred phase from
     its assigned rotary ring (here: made-up anchors spread over the
     period) *)
  let anchors =
    [|
      { Cost_driven.t_c = 120.0; t_ci = 1.0; weight = 50.0 };
      { Cost_driven.t_c = 840.0; t_ci = 2.5; weight = 210.0 };
      { Cost_driven.t_c = 400.0; t_ci = 0.4; weight = 25.0 };
      { Cost_driven.t_c = 990.0; t_ci = 1.8; weight = 140.0 };
      { Cost_driven.t_c = 330.0; t_ci = 3.0; weight = 260.0 };
    |]
  in
  let m = 0.5 *. graph.Max_slack.slack in
  Printf.printf "cost-driven rescheduling at prespecified M = %.2f ps:\n" m;
  (match Cost_driven.solve_minmax_graph problem ~slack:m ~anchors with
  | None -> print_endline "  infeasible"
  | Some r ->
      Printf.printf "  min-max engine: Delta = %.2f ps\n" r.Cost_driven.objective;
      let refined =
        Cost_driven.refine_toward_anchors problem ~slack:m ~anchors ~skews:r.Cost_driven.skews
      in
      Printf.printf "  %-6s %10s %10s %10s %10s\n" "FF" "anchor" "minmax" "refined" "|gap|";
      Array.iteri
        (fun i a ->
          let ideal = a.Cost_driven.t_c +. a.Cost_driven.t_ci in
          Printf.printf "  %-6d %10.1f %10.1f %10.1f %10.1f\n" i ideal r.Cost_driven.skews.(i)
            refined.(i)
            (Float.abs (refined.(i) -. ideal)))
        anchors;
      assert (Skew_problem.check problem ~slack:m ~skews:refined));
  (match Cost_driven.solve_weighted_lp problem ~slack:m ~anchors with
  | None -> print_endline "  weighted LP infeasible"
  | Some r ->
      Printf.printf "  weighted-sum LP objective (sum w*|dev|): %.1f\n" r.Cost_driven.objective);
  Printf.printf
    "\nflip-flops whose anchors fit the timing window sit exactly on their\n\
     ring phases; the pipeline loop constrains the rest.\n"
