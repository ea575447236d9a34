(* Integration tests for Rc_core.Flow: the six-stage methodology on the
   tiny benchmark, checking end-to-end invariants the paper relies on:
   every flip-flop tapped at its scheduled phase, timing constraints
   satisfied at the prespecified slack, tapping cost reduced vs the base
   case without destroying signal wirelength, and the ILP mode trading
   wirelength for maximum ring load. *)

open Rc_core

let tiny_outcome = lazy (Flow.run (Flow.default_config ~mode:Flow.Netflow Bench_suite.tiny))
let tiny_ilp = lazy (Flow.run (Flow.default_config ~mode:Flow.Ilp Bench_suite.tiny))

let test_flow_completes () =
  let o = Lazy.force tiny_outcome in
  Alcotest.(check bool) "has iterations" true (List.length o.Flow.history >= 2);
  Alcotest.(check bool) "positive slack" true (o.Flow.slack > 0.0);
  Alcotest.(check bool) "pairs found" true (o.Flow.n_pairs > 0)

let test_tapping_cost_reduced () =
  let o = Lazy.force tiny_outcome in
  Alcotest.(check bool)
    (Printf.sprintf "tapping %.0f -> %.0f" o.Flow.base.Flow.tapping_wl o.Flow.final.Flow.tapping_wl)
    true
    (o.Flow.final.Flow.tapping_wl < 0.8 *. o.Flow.base.Flow.tapping_wl)

let test_signal_wl_not_destroyed () =
  let o = Lazy.force tiny_outcome in
  Alcotest.(check bool)
    (Printf.sprintf "signal %.0f -> %.0f" o.Flow.base.Flow.signal_wl o.Flow.final.Flow.signal_wl)
    true
    (o.Flow.final.Flow.signal_wl < 1.15 *. o.Flow.base.Flow.signal_wl)

let test_afd_is_tap_per_ff () =
  let o = Lazy.force tiny_outcome in
  let n = Rc_netlist.Netlist.n_ffs o.Flow.netlist in
  Alcotest.(check (float 1e-6)) "afd definition"
    (o.Flow.final.Flow.tapping_wl /. float_of_int n)
    o.Flow.final.Flow.afd

let test_taps_realize_schedule () =
  let o = Lazy.force tiny_outcome in
  let tech = o.Flow.cfg.Flow.tech in
  let period = Rc_rotary.Ring_array.period o.Flow.rings in
  Array.iteri
    (fun i tap ->
      let ring = Rc_rotary.Ring_array.ring o.Flow.rings o.Flow.assignment.Rc_assign.Assign.ring_of_ff.(i) in
      let got =
        Rc_rotary.Ring.delay_at ring ~arc:tap.Rc_rotary.Tapping.arc
          ~conductor:tap.Rc_rotary.Tapping.conductor
        +. Rc_rotary.Tapping.stub_delay tech tap.Rc_rotary.Tapping.wirelength
      in
      let d = Float.rem (Float.abs (got -. o.Flow.skews.(i))) period in
      Alcotest.(check bool)
        (Printf.sprintf "ff %d phase error" i)
        true
        (Float.min d (period -. d) < 0.01))
    o.Flow.assignment.Rc_assign.Assign.taps

let test_final_schedule_meets_timing () =
  let o = Lazy.force tiny_outcome in
  let tech = o.Flow.cfg.Flow.tech in
  (* rebuild the timing constraints at the final placement and verify the
     final schedule satisfies them at the stage-4 slack *)
  let sta = Rc_timing.Sta.analyze tech o.Flow.netlist ~positions:o.Flow.positions in
  let problem = Flow.skew_problem_of_sta tech o.Flow.netlist sta in
  Alcotest.(check bool) "timing holds at stage-4 slack" true
    (Rc_skew.Skew_problem.check problem ~slack:o.Flow.stage4_slack ~skews:o.Flow.skews)

let test_positions_legal () =
  let o = Lazy.force tiny_outcome in
  let chip = Bench_suite.chip o.Flow.cfg.Flow.bench in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun c p ->
      if Rc_netlist.Netlist.movable o.Flow.netlist c then begin
        Alcotest.(check bool) "in chip" true (Rc_geom.Rect.contains chip p);
        let key = (int_of_float p.Rc_geom.Point.x, int_of_float p.Rc_geom.Point.y) in
        Alcotest.(check bool) "no overlap" false (Hashtbl.mem seen key);
        Hashtbl.replace seen key ()
      end)
    o.Flow.positions

let test_ilp_mode_reduces_max_load () =
  (* the guarantee holds on a matched state: same placement and targets.
     (the two full flows evolve different placements, so their finals are
     not directly comparable on small noisy circuits) *)
  let nf = Lazy.force tiny_outcome in
  let il = Lazy.force tiny_ilp in
  Alcotest.(check bool) "ilp stats recorded" true (Option.is_some il.Flow.ilp_stats);
  let tech = nf.Flow.cfg.Flow.tech in
  let ffs, _ = Flow.ff_index nf.Flow.netlist in
  let ff_positions = Array.map (fun c -> nf.Flow.positions.(c)) ffs in
  let targets = nf.Flow.skews in
  let nfa = Rc_assign.Assign.by_netflow tech nf.Flow.rings ~ff_positions ~targets in
  let ila, stats = Rc_assign.Assign.by_ilp tech nf.Flow.rings ~ff_positions ~targets in
  (* the network-flow assignment is a feasible point of the min-max ILP,
     so the LP relaxation must lower-bound its max load; the rounded
     solution may exceed it only by the (small) integrality gap *)
  Alcotest.(check bool)
    (Printf.sprintf "LP optimum %.1f <= netflow max load %.1f" stats.Rc_assign.Assign.lp_optimum
       nfa.Rc_assign.Assign.max_load)
    true
    (stats.Rc_assign.Assign.lp_optimum <= nfa.Rc_assign.Assign.max_load +. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "rounded %.1f within IG of netflow %.1f" ila.Rc_assign.Assign.max_load
       nfa.Rc_assign.Assign.max_load)
    true
    (ila.Rc_assign.Assign.max_load
    <= (nfa.Rc_assign.Assign.max_load *. stats.Rc_assign.Assign.integrality_gap) +. 1e-6);
  Alcotest.(check bool) "IG >= 1" true (stats.Rc_assign.Assign.integrality_gap >= 1.0 -. 1e-9)

let test_netflow_mode_wins_wirelength () =
  let nf = Lazy.force tiny_outcome and il = Lazy.force tiny_ilp in
  Alcotest.(check bool)
    (Printf.sprintf "netflow tapping %.0f <= ilp %.0f"
       nf.Flow.final.Flow.tapping_wl il.Flow.final.Flow.tapping_wl)
    true
    (nf.Flow.final.Flow.tapping_wl <= il.Flow.final.Flow.tapping_wl +. 1e-6)

let test_history_monotone_cost () =
  let o = Lazy.force tiny_outcome in
  (* total wirelength at the end never exceeds the base case: the flow
     only accepts improving iterations (within tolerance) *)
  Alcotest.(check bool) "total cost improves" true
    (o.Flow.final.Flow.total_wl <= o.Flow.base.Flow.total_wl)

let test_best_state_restored () =
  (* the shipped outcome must equal the minimum-cost snapshot in the
     history: the stage-5 best-state-keeping invariant the driver
     enforces (a regressing last iteration cannot ship) *)
  let check name o =
    let cost = Flow_ctx.cost_of in
    let min_cost =
      List.fold_left (fun acc s -> Float.min acc (cost s)) infinity o.Flow.history
    in
    Alcotest.(check (float 1e-6))
      (name ^ ": shipped = min-cost snapshot")
      min_cost (cost o.Flow.final);
    (* and the shipped arrays are consistent with that snapshot *)
    Alcotest.(check (float 1e-6))
      (name ^ ": assignment matches final snapshot")
      o.Flow.final.Flow.tapping_wl o.Flow.assignment.Rc_assign.Assign.total_cost
  in
  check "netflow" (Lazy.force tiny_outcome);
  check "ilp" (Lazy.force tiny_ilp)

let canonical_stages =
  [
    "placement";
    "max-slack scheduling";
    "assignment";
    "cost-driven scheduling";
    "evaluation";
    "incremental placement";
  ]

let test_trace_structure () =
  let o = Lazy.force tiny_outcome in
  let t = o.Flow.trace in
  let events = Flow_trace.events t in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (* the trace names exactly the six stages, nothing else *)
  Alcotest.(check (slist string compare))
    "exactly the six stages" canonical_stages (Flow_trace.stage_names t);
  (* wall times are non-negative, and a stage's pool wall is part of it *)
  List.iter
    (fun (e : Flow_trace.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "wall >= 0 (%s@%d)" e.Flow_trace.stage e.Flow_trace.iteration)
        true
        (e.Flow_trace.wall_s >= 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "0 <= pool <= wall (%s@%d)" e.Flow_trace.stage e.Flow_trace.iteration)
        true
        (e.Flow_trace.pool_s >= 0.0 && e.Flow_trace.pool_s <= e.Flow_trace.wall_s +. 1e-6))
    events;
  (* per-iteration structure: prologue = stages 1,2,3 + evaluation; every
     loop iteration runs cost-driven scheduling, assignment, evaluation
     (+ incremental placement when another iteration follows) *)
  let names i =
    List.filter_map
      (fun (e : Flow_trace.event) -> if e.iteration = i then Some e.stage else None)
      events
  in
  let iterations = List.sort_uniq compare (List.map (fun (e : Flow_trace.event) -> e.iteration) events) in
  Alcotest.(check (list string))
    "prologue stages"
    [ "placement"; "max-slack scheduling"; "assignment"; "evaluation" ]
    (names 0);
  let last = List.fold_left max 0 iterations in
  (* loop iterations 1..k: stage 4 then 3 then 5 (stage 6 only when a
     further iteration consumes it); epilogue k+1: stage 3 then 5 *)
  List.iter
    (fun i ->
      if i > 0 && i < last then begin
        let n = names i in
        Alcotest.(check (list string))
          (Printf.sprintf "iteration %d prefix" i)
          [ "cost-driven scheduling"; "assignment"; "evaluation" ]
          (List.filteri (fun k _ -> k < 3) n);
        Alcotest.(check bool)
          (Printf.sprintf "iteration %d tail" i)
          true
          (match List.filteri (fun k _ -> k >= 3) n with
          | [] | [ "incremental placement" ] -> true
          | _ -> false)
      end)
    iterations;
  Alcotest.(check (list string)) "epilogue stages" [ "assignment"; "evaluation" ] (names last);
  (* the reported CPU split is exactly the trace totals per category *)
  Alcotest.(check (float 1e-9))
    "cpu_flow_s = optimizer total" o.Flow.cpu_flow_s
    (Flow_trace.total_wall ~category:Flow_trace.Optimizer t);
  Alcotest.(check (float 1e-9))
    "cpu_placer_s = placer total" o.Flow.cpu_placer_s
    (Flow_trace.total_wall ~category:Flow_trace.Placer t);
  Alcotest.(check (float 1e-9))
    "split covers the whole trace"
    (Flow_trace.total_wall t)
    (o.Flow.cpu_flow_s +. o.Flow.cpu_placer_s)

(* The driver computes each stage boundary's objective once and hands
   it to the next stage as its before-value.  Every event's cost delta
   must still equal the objective computed directly on the stage's
   input and output contexts, bit for bit — including the epilogue's
   best-state restore, whose output is the shipped outcome. *)
let test_trace_cost_deltas () =
  let cfg = Flow.default_config Bench_suite.tiny in
  let seen = ref [] in
  let observed (st : Flow_stage.t) =
    {
      st with
      Flow_stage.run =
        (fun ctx ->
          let before = Flow_ctx.current_objective ctx in
          let ctx' = st.Flow_stage.run ctx in
          seen := (before, Flow_ctx.current_objective ctx') :: !seen;
          ctx');
    }
  in
  let p = Flow.plan_of_config cfg in
  let plan =
    {
      Flow.place = observed p.Flow.place;
      schedule = observed p.Flow.schedule;
      assign = observed p.Flow.assign;
      cost_schedule = observed p.Flow.cost_schedule;
      evaluate = observed p.Flow.evaluate;
      replace = observed p.Flow.replace;
    }
  in
  let o = Flow.run ~plan cfg in
  let delta = function Some b, Some a -> Some (Int64.bits_of_float (a -. b)) | _ -> None in
  let bits = Option.map Int64.bits_of_float in
  let events, restore =
    List.partition
      (fun (e : Flow_trace.event) -> e.Flow_trace.variant <> "best-state restore")
      (Flow_trace.events o.Flow.trace)
  in
  let seen = List.rev !seen in
  Alcotest.(check int) "one observation per plan stage" (List.length seen) (List.length events);
  List.iter2
    (fun (e : Flow_trace.event) obs ->
      Alcotest.(check (option int64))
        (Printf.sprintf "%s@%d" e.Flow_trace.stage e.Flow_trace.iteration)
        (delta obs) (bits e.Flow_trace.cost_delta))
    events seen;
  Alcotest.(check bool) "deltas are defined once an assignment exists" true
    (List.exists (fun (e : Flow_trace.event) -> e.Flow_trace.cost_delta <> None) events);
  let shipped = Flow_ctx.cost_of o.Flow.final in
  match (restore, List.rev seen) with
  | [ r ], (_, last_after) :: _ ->
      Alcotest.(check (option int64)) "best-state restore"
        (delta (last_after, Some shipped))
        (bits r.Flow_trace.cost_delta)
  | _ -> Alcotest.fail "expected one best-state restore after the plan stages"

let test_plan_swap_runs_weighted () =
  (* the weighted stage-4 objective is reached by swapping the plan's
     slot, the one selector of a variant (pluggability acceptance): the
     swapped run completes and every stage-4 execution in its trace is
     the weighted variant *)
  let cfg = Flow.default_config Bench_suite.tiny in
  let plan =
    { (Flow.plan_of_config cfg) with Flow.cost_schedule = Flow_stages.cost_driven_weighted }
  in
  let swapped = Flow.run ~plan cfg in
  let stage4 =
    List.filter
      (fun (e : Flow_trace.event) -> e.Flow_trace.stage = "cost-driven scheduling")
      (Flow_trace.events swapped.Flow.trace)
  in
  Alcotest.(check bool) "stage 4 ran" true (stage4 <> []);
  List.iter
    (fun (e : Flow_trace.event) ->
      Alcotest.(check string) "stage-4 variant" "weighted MCF" e.Flow_trace.variant)
    stage4;
  Alcotest.(check bool) "shipped a placement" true
    (Array.length swapped.Flow.positions = Rc_netlist.Netlist.n_cells swapped.Flow.netlist)

let test_determinism () =
  let a = Flow.run (Flow.default_config ~mode:Flow.Netflow Bench_suite.tiny) in
  let b = Lazy.force tiny_outcome in
  Alcotest.(check (float 1e-9)) "same final tapping" b.Flow.final.Flow.tapping_wl
    a.Flow.final.Flow.tapping_wl;
  Alcotest.(check (float 1e-9)) "same final signal" b.Flow.final.Flow.signal_wl
    a.Flow.final.Flow.signal_wl

let test_experiments_tables_render () =
  let suite = Experiments.run_suite ~benches:[ Bench_suite.tiny ] ~with_ilp:true () in
  List.iter
    (fun t ->
      Alcotest.(check bool) "non-empty table" true
        (String.length (Rc_obs.Report.to_text t) > 100))
    [
      Experiments.table3 suite;
      Experiments.table4 suite;
      Experiments.table5 suite;
      Experiments.table6 suite;
      Experiments.table7 suite;
    ];
  let rows, table = Experiments.table2 ~benches:[ Bench_suite.tiny ] () in
  Alcotest.(check int) "table2 rows" 1 (List.length rows);
  Alcotest.(check bool) "table2 text" true (String.length (Rc_obs.Report.to_text table) > 50);
  let curve, fig = Experiments.fig2 () in
  Alcotest.(check bool) "fig2 has curve" true (List.length curve > 10);
  Alcotest.(check bool) "fig2 text" true (String.length fig > 100)

let test_improved_flow_beats_default () =
  let d = Lazy.force tiny_outcome in
  let i = Flow.run (Flow.improved_config Bench_suite.tiny) in
  Alcotest.(check bool)
    (Printf.sprintf "improved tap %.0f <= default %.0f" i.Flow.final.Flow.tapping_wl
       d.Flow.final.Flow.tapping_wl)
    true
    (i.Flow.final.Flow.tapping_wl <= d.Flow.final.Flow.tapping_wl +. 1e-6);
  (* the improved flow must not blow up signal wirelength *)
  Alcotest.(check bool) "signal within 10% of default" true
    (i.Flow.final.Flow.signal_wl <= 1.1 *. d.Flow.final.Flow.signal_wl);
  (* and its taps still realize the schedule *)
  let tech = i.Flow.cfg.Flow.tech in
  let period = Rc_rotary.Ring_array.period i.Flow.rings in
  Array.iteri
    (fun k tap ->
      let ring =
        Rc_rotary.Ring_array.ring i.Flow.rings i.Flow.assignment.Rc_assign.Assign.ring_of_ff.(k)
      in
      let got =
        Rc_rotary.Ring.delay_at ring ~arc:tap.Rc_rotary.Tapping.arc
          ~conductor:tap.Rc_rotary.Tapping.conductor
        +. Rc_rotary.Tapping.stub_delay tech tap.Rc_rotary.Tapping.wirelength
      in
      let dd = Float.rem (Float.abs (got -. i.Flow.skews.(k))) period in
      Alcotest.(check bool) "tap phase ok" true (Float.min dd (period -. dd) < 0.01))
    i.Flow.assignment.Rc_assign.Assign.taps

let test_table1_small () =
  let rows, table = Experiments.table1 ~benches:[ Bench_suite.tiny ] ~bb_seconds:5.0 () in
  let text = Rc_obs.Report.to_text table in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check bool) "greedy IG sane" true
    (r.Experiments.greedy_ig >= 1.0 -. 1e-9 && r.Experiments.greedy_ig < 5.0);
  Alcotest.(check bool) "text" true (String.length text > 50)

(* The digest-pinned circuits as experiment-suite arms, shared by the
   digest pins and the shape check: s9234 and s5378 with the ILP arm,
   s15850 without it (its ILP arm takes about 45 s, too slow here). *)
let paper_suite =
  lazy
    (let find name = Option.get (Bench_suite.find name) in
     Experiments.run_suite ~benches:[ Bench_suite.s9234; find "s5378" ] ()
     @ Experiments.run_suite ~benches:[ find "s15850" ] ~with_ilp:false ())

(* Table II digests, the same pins as the layered benchmark's paper_flow
   workload (its s38417, s35932 and ILP arms are too slow here).  The
   flow calls no libm transcendental (only sqrt), so the pins hold on
   any x86-64 host.  Moving one bit of the positions, skews or
   assignment a flow returns fails this test; a rounding change inside
   the placer that legalization absorbs does not, which is what the
   "oracles" properties in test_place and test_skew are for. *)
let test_table2_digests () =
  let pins =
    [
      ("s9234", "8e6041d5e058485ce95bfa934681807a");
      ("s5378", "addcc0a40f27f4795feaa77725558568");
      ("s15850", "fd5501e0d8a15a9b226548b14171e1b0");
    ]
  in
  List.iter
    (fun (e : Experiments.suite_entry) ->
      let name = e.Experiments.bench.Bench_suite.bname in
      Alcotest.(check string) name (List.assoc name pins)
        (Rc_serve.Checkpoint.digest_of_outcome e.Experiments.netflow))
    (Lazy.force paper_suite)

(* The paper's shape (EXPERIMENTS.shape) on Tables III-VII of the pinned
   circuits, read back from the tables' Rc_obs.Report JSON.  s15850 has
   no ILP arm here, so only its Table IV bounds can be checked; the test
   lists the skipped bounds and fails if any other bound is skipped. *)
let test_paper_shape () =
  let module R = Rc_obs.Report in
  let suite = Lazy.force paper_suite in
  let doc =
    {
      R.title = "Tables III-VII";
      intro = "";
      sections =
        [
          R.section "tables"
            ~tables:
              [
                Experiments.table3 suite;
                Experiments.table4 suite;
                Experiments.table5 suite;
                Experiments.table6 suite;
                Experiments.table7 suite;
              ];
        ];
    }
  in
  let json =
    match Rc_util.Json.of_string (Rc_util.Json.to_string (R.to_json doc)) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let circuits = List.map (fun (e : Experiments.suite_entry) -> e.bench.Bench_suite.bname) suite in
  let r = Shape_check.check ~circuits (Shape_check.load ()) json in
  Printf.printf "%d (bound, circuit) pairs checked\n" r.Shape_check.checked;
  List.iter (Printf.printf "skipped (no row): %s\n") r.Shape_check.skipped;
  Alcotest.(check (list string)) "bounds met" [] r.Shape_check.failures;
  Alcotest.(check bool) "something checked" true (r.Shape_check.checked > 0);
  List.iter
    (fun line ->
      Alcotest.(check bool)
        ("only s15850's ILP-arm bounds are skipped: " ^ line)
        true
        (String.ends_with ~suffix:"| s15850" line
        && not (String.starts_with ~prefix:"Table IV " line)))
    r.Shape_check.skipped

let () =
  Alcotest.run "rc_flow"
    [
      ( "flow",
        [
          Alcotest.test_case "completes" `Quick test_flow_completes;
          Alcotest.test_case "tapping cost reduced" `Quick test_tapping_cost_reduced;
          Alcotest.test_case "signal wirelength preserved" `Quick test_signal_wl_not_destroyed;
          Alcotest.test_case "AFD definition" `Quick test_afd_is_tap_per_ff;
          Alcotest.test_case "taps realize schedule" `Quick test_taps_realize_schedule;
          Alcotest.test_case "final schedule meets timing" `Quick
            test_final_schedule_meets_timing;
          Alcotest.test_case "positions legal" `Quick test_positions_legal;
          Alcotest.test_case "history cost improves" `Quick test_history_monotone_cost;
          Alcotest.test_case "best state restored" `Quick test_best_state_restored;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "Table II digests" `Quick test_table2_digests;
          Alcotest.test_case "paper shape" `Quick test_paper_shape;
        ] );
      ( "trace",
        [
          Alcotest.test_case "six stages, per-iteration shape, CPU split" `Quick
            test_trace_structure;
          Alcotest.test_case "plan swap runs weighted MCF" `Quick test_plan_swap_runs_weighted;
          Alcotest.test_case "cost deltas are the boundary objectives" `Quick
            test_trace_cost_deltas;
        ] );
      ( "modes",
        [
          Alcotest.test_case "ILP reduces max load" `Quick test_ilp_mode_reduces_max_load;
          Alcotest.test_case "netflow wins wirelength" `Quick test_netflow_mode_wins_wirelength;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "improved flow beats default" `Slow
            test_improved_flow_beats_default;
          Alcotest.test_case "tables render" `Slow test_experiments_tables_render;
          Alcotest.test_case "table1 on tiny" `Slow test_table1_small;
        ] );
    ]
