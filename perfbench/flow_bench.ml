(* The in-process flow workloads.  paper_flow runs the five Table II
   circuits through the default netflow flow and s9234 once more in ILP
   mode; scale_100k runs the size100k hierarchical circuit, the only
   input above the V-cycle placer's and the sharded assignment's size
   thresholds.  Both run at jobs=2. *)

open Rc_core
module M = Measure
module Metrics = Rc_obs.Metrics

type workload = Paper_flow | Scale_100k

type item = { label : string; bench : Bench_suite.bench; mode : Flow.mode }

(* Seed 1 reproduces the Bench_suite circuits exactly, which is what the
   pinned digests below belong to; any other seed shifts every generator
   seed.  Seed 2 is the second seed for re-checking a claim. *)
let default_seed = 1

(* scale_100k regenerates size100k from the workload seed.  paper_flow
   always runs the published Table II circuits: regenerated ones differ
   in cost by up to 40% from seed to seed (7.7 s to 13 s a pass), which
   no allowed bound absorbs, and the fixed circuits let every run check
   the pinned digests. *)
let circuit_seed workload seed = match workload with Paper_flow -> default_seed | Scale_100k -> seed

let jobs = 2

let reseed seed (b : Bench_suite.bench) =
  let shift s = s + ((seed - default_seed) * 7919) in
  match b.Bench_suite.gen with
  | Bench_suite.Flat g ->
      { b with gen = Bench_suite.Flat { g with Rc_netlist.Generator.seed = shift g.Rc_netlist.Generator.seed } }
  | Bench_suite.Hier h ->
      { b with gen = Bench_suite.Hier { h with Rc_netlist.Generator.hseed = shift h.Rc_netlist.Generator.hseed } }

let items workload ~seed =
  let item ?(mode = Flow.Netflow) b =
    let suffix = match mode with Flow.Netflow -> "" | Flow.Ilp -> "/ilp" in
    { label = b.Bench_suite.bname ^ suffix; bench = reseed seed b; mode }
  in
  match workload with
  | Paper_flow -> List.map item Bench_suite.all @ [ item ~mode:Flow.Ilp Bench_suite.s9234 ]
  | Scale_100k -> [ item Bench_suite.size100k ]

(* Checkpoint.digest_of_outcome of every flow at the default seed. *)
let pinned =
  [
    ("s9234", "8e6041d5e058485ce95bfa934681807a");
    ("s5378", "addcc0a40f27f4795feaa77725558568");
    ("s15850", "fd5501e0d8a15a9b226548b14171e1b0");
    ("s38417", "ed13533923917c690d4e83726a424a97");
    ("s35932", "977aaeed9f90d53ab235d163dd9a54c7");
    ("s9234/ilp", "97638a602738a16700232a7307707991");
    ("size100k", "25e82b30cb910990bc498b3096c9c0ee");
  ]

(* One netlist per distinct circuit (the ILP arm reuses s9234's). *)
let generate items =
  List.fold_left
    (fun acc it ->
      let name = it.bench.Bench_suite.bname in
      if List.mem_assoc name acc then acc else (name, Bench_suite.netlist it.bench) :: acc)
    [] items

(* One pass: every item's flow, each timed around Flow.run_on alone. *)
let pass ?max_iterations items netlists =
  List.map
    (fun it ->
      let cfg = Flow.default_config ~mode:it.mode it.bench in
      let cfg =
        match max_iterations with Some k -> { cfg with Flow.max_iterations = k } | None -> cfg
      in
      let netlist = List.assoc it.bench.Bench_suite.bname netlists in
      let o, wall = M.time (fun () -> Flow.run_on cfg netlist) in
      (it, o, wall))
    items

let wall p = M.sum (List.map (fun (_, _, w) -> w) p)

let digests p =
  List.map (fun (it, o, _) -> (it.label, Rc_serve.Checkpoint.digest_of_outcome o)) p

let well_formed (o : Flow.outcome) =
  let n_rings = Rc_rotary.Ring_array.n_rings o.Flow.rings in
  let ring_of_ff = o.Flow.assignment.Rc_assign.Assign.ring_of_ff in
  let afd = o.Flow.final.Flow.afd in
  Float.is_finite afd && afd > 0.0
  && Array.length ring_of_ff = Rc_netlist.Netlist.n_ffs o.Flow.netlist
  && Array.for_all (fun r -> r >= 0 && r < n_rings) ring_of_ff

(* At the default seed every digest must equal its pin.  Other seeds
   have no pins, so a pass is held to [reference], the digests of an
   earlier pass over the same circuits ([] checks shape only). *)
let check_pass tally ~seed ~reference p =
  List.iter
    (fun (it, o, _) ->
      M.check tally (well_formed o) "%s: malformed final state" it.label;
      let d = Rc_serve.Checkpoint.digest_of_outcome o in
      let expected = if seed = default_seed then pinned else reference in
      Option.iter
        (fun e -> M.check tally (d = e) "%s: digest %s, expected %s" it.label d e)
        (List.assoc_opt it.label expected))
    p

let events p =
  List.concat_map (fun (_, (o : Flow.outcome), _) -> Flow_trace.events o.Flow.trace) p

(* Loop iterations: every one runs stage 4 exactly once. *)
let iterations p =
  List.length
    (List.filter (fun (e : Flow_trace.event) -> e.Flow_trace.stage = "cost-driven scheduling") (events p))

(* Circuit generation is the set-up; it is repeated so that set-up time
   is a median too. *)
let setup_reps = 3

let min_measure_s = 25.0

let timed workload ~seed ~seconds =
  let seed = circuit_seed workload seed in
  Rc_par.Pool.set_jobs jobs;
  let tally = M.tally () in
  let items = items workload ~seed in
  let netlists = ref [] in
  let gen_s =
    List.init setup_reps (fun _ ->
        netlists := [];
        let n, dt = M.time (fun () -> generate items) in
        netlists := n;
        dt)
  in
  (* whole passes until [seconds], and at least [min_measure_s], have
     passed: a paper_flow pass's wall moves by up to 12% from one pass to
     the next on a shared 2-core host, so its median needs about three *)
  let t_end = M.now () +. Float.max seconds min_measure_s in
  let rec run acc =
    let acc = pass items !netlists :: acc in
    if M.now () < t_end then run acc else List.rev acc
  in
  let passes = run [] in
  let first = List.hd passes in
  check_pass tally ~seed ~reference:[] first;
  List.iter (check_pass tally ~seed ~reference:(digests first)) (List.tl passes);
  List.iter (fun (l, d) -> Printf.printf "digest %-12s %s\n" l d) (digests first);
  Printf.printf "loop iterations per pass: %d; pass walls (s):%s\n" (iterations first)
    (String.concat "" (List.map (fun p -> Printf.sprintf " %.3f" (wall p)) passes));
  let walls = List.map wall passes in
  let peak = M.peak_rss_mb () in
  ( tally,
    [
      ("setup_s", M.median gen_s);
      ("flow_wall_s", M.median walls);
      ("peak_rss_mb", peak);
      ("ops_per_s", float_of_int (List.length items) /. M.median walls);
    ] )

(* ---- the traced run ---- *)

let stage_keys =
  [
    ("placement", "stage.placement_s");
    ("max-slack scheduling", "stage.max_slack_s");
    ("assignment", "stage.assignment_s");
    ("cost-driven scheduling", "stage.cost_schedule_s");
    ("evaluation", "stage.evaluation_s");
    ("incremental placement", "stage.incremental_place_s");
  ]

let stage_sums p =
  let evs = events p in
  List.map
    (fun (stage, key) ->
      ( key,
        M.sum
          (List.filter_map
             (fun (e : Flow_trace.event) -> if e.Flow_trace.stage = stage then Some e.wall_s else None)
             evs) ))
    stage_keys

let count snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Count n) -> float_of_int n
  | Some (Metrics.Hist { n; _ }) -> float_of_int n
  | _ -> 0.0

let share part rest = if part +. rest > 0.0 then part /. (part +. rest) else 0.0

(* Cold calls of each solver's public entry point on the final state of
   every flow of the pass: what one call costs outside the flow's
   incremental caches. *)
let solver_times p =
  let sta = ref 0.0 and max_slack = ref 0.0 and cost_driven = ref 0.0 in
  let netflow = ref 0.0 and ilp = ref 0.0 in
  let add r dt = r := !r +. dt in
  List.iter
    (fun (it, (o : Flow.outcome), _) ->
      let cfg = o.Flow.cfg in
      let tech = cfg.Flow.tech and netlist = o.Flow.netlist and rings = o.Flow.rings in
      let ffs, _ = Flow.ff_index netlist in
      let ff_positions = Array.map (fun c -> o.Flow.positions.(c)) ffs in
      let targets = o.Flow.skews in
      match it.mode with
      | Flow.Ilp ->
          add ilp
            (snd
               (M.time (fun () ->
                    Rc_assign.Assign.by_ilp ~candidates:cfg.Flow.candidates tech rings ~ff_positions
                      ~targets)))
      | Flow.Netflow ->
          let timing, dt =
            M.time (fun () -> Rc_timing.Sta.analyze tech netlist ~positions:o.Flow.positions)
          in
          add sta dt;
          let problem = Flow.skew_problem_of_sta tech netlist timing in
          add max_slack (snd (M.time (fun () -> Rc_skew.Max_slack.solve_graph problem)));
          let anchors =
            Flow.anchors_of_assignment tech rings o.Flow.assignment ~ff_positions ~skews:targets
          in
          add cost_driven
            (snd
               (M.time (fun () ->
                    Rc_skew.Cost_driven.solve_minmax_graph problem ~slack:o.Flow.stage4_slack
                      ~anchors)));
          let capacities =
            Rc_rotary.Ring_array.default_capacities rings ~n_ffs:(Array.length ffs)
              ~slack:cfg.Flow.capacity_slack
          in
          add netflow
            (snd
               (M.time (fun () ->
                    Rc_assign.Assign.by_netflow ~candidates:cfg.Flow.candidates ~capacities tech
                      rings ~ff_positions ~targets))))
    p;
  [
    ("solver.sta_s", !sta);
    ("solver.max_slack_s", !max_slack);
    ("solver.cost_driven_s", !cost_driven);
    ("solver.assign_netflow_s", !netflow);
    ("solver.assign_ilp_s", !ilp);
  ]

(* The traced run: registry on, one jobs=2 pass for the stage split and
   the counters, cold solver calls on its final states, and a jobs=1
   pass for the speed-up (traced too, so both sides carry the same
   overhead).  The tracing overhead is measured on prologue-only flows
   (max_iterations 0), each circuit run with the registry off, on, and
   off again (the two untraced runs bracket the traced one, cancelling
   warm-up order), after a tiny flow has spawned the pool: a third full
   pass would not fit size100k into one run. *)
let traced workload ~seed =
  let seed = circuit_seed workload seed in
  Rc_par.Pool.set_jobs jobs;
  let tally = M.tally () in
  let items = items workload ~seed in
  let netlists, gen_s = M.time (fun () -> generate items) in
  ignore (Flow.run (Flow.default_config Bench_suite.tiny));
  let probe_off, probe_on =
    List.fold_left
      (fun (off, on) it ->
        let probe () = wall (pass ~max_iterations:0 [ it ] netlists) in
        let w_off1 = probe () in
        Metrics.set_enabled true;
        let w_on = probe () in
        Metrics.set_enabled false;
        let w_off2 = probe () in
        (off +. ((w_off1 +. w_off2) /. 2.0), on +. w_on))
      (0.0, 0.0) items
  in
  Metrics.set_enabled true;
  Metrics.reset ();
  let gc0 = Gc.quick_stat () in
  let p2 = pass items netlists in
  let gc1 = Gc.quick_stat () in
  let snap = Metrics.snapshot () in
  Metrics.set_enabled false;
  let solvers = solver_times p2 in
  Rc_par.Pool.set_jobs 1;
  Metrics.set_enabled true;
  let p1 = pass items netlists in
  Metrics.set_enabled false;
  (* jobs-invariance: the jobs=1 digests must equal the jobs=2 ones *)
  check_pass tally ~seed ~reference:[] p2;
  check_pass tally ~seed ~reference:(digests p2) p1;
  let w2 = wall p2 in
  let stages = stage_sums p2 in
  let c = count snap in
  let stage_total = M.sum (List.map snd stages) in
  Printf.printf "stages account for %.2f s of flow_wall_s %.2f s (%.1f%%; the rest is\n"
    stage_total w2 (100.0 *. stage_total /. w2);
  Printf.printf "  context set-up, snapshots and checkpoint hooks between stages)\n";
  Printf.printf "tracing overhead on the prologue-only pass: %.2f s untraced, %.2f s traced\n"
    probe_off probe_on;
  ( tally,
    [ ("netlist.generate_s", gen_s) ]
    @ stages
    @ [
        ("flow.iterations", float_of_int (iterations p2));
        ("sparse.cg.solves", c "sparse.cg.solves");
        ("sparse.cg.iterations", c "sparse.cg.iterations");
        ("sparse.cg.unconverged", c "sparse.cg.unconverged");
        ("timing.sta.cone_recomputes", c "timing.sta.cone_recomputes");
        ( "timing.sta.cone_reuse_ratio",
          share (c "timing.sta.cone_reuses") (c "timing.sta.cone_recomputes") );
        ("skew.minmax.probes", c "skew.minmax.probes");
        ("assign.candidate_solves", c "assign.candidate_solves");
        ("assign.tapcache.hit_ratio", share (c "assign.tapcache.hits") (c "assign.tapcache.misses"));
        ("assign.netflow.shard_solves", c "assign.netflow.shard_solves");
        ("assign.netflow.shard_repairs", c "assign.netflow.shard_repairs");
        ("netflow.mcmf.augmentations", c "netflow.mcmf.augmentations");
        ("netflow.mcmf.dijkstra_scans", c "netflow.mcmf.dijkstra_scans");
        ( "netflow.assignment.warm_ratio",
          share
            (c "netflow.assignment.replays" +. c "netflow.assignment.warm_solves")
            (c "netflow.assignment.scratch_solves") );
        ("lp.simplex.pivots", c "lp.simplex.pivots");
        ("ilp.rounding.rounds", c "ilp.rounding.rounds");
        ("par.speedup_vs_jobs1", wall p1 /. w2);
        ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
        ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("gc.top_heap_mb", float_of_int gc1.Gc.top_heap_words *. 8.0 /. 1048576.0);
        ("trace.overhead_frac", (probe_on /. probe_off) -. 1.0);
        ("trace.stage_coverage", stage_total /. w2);
      ]
    @ solvers )
