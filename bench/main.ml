(* Benchmark harness.

   Part 1 regenerates every table (I-VII) and figure (Fig. 2) of the
   paper's evaluation on the five Table II circuits — the primary
   reproduction artifact (tee to bench_output.txt).

   Part 2 runs one Bechamel micro-benchmark per table, timing the
   computational kernel behind that table on a small instance, so
   per-kernel performance regressions are visible independently of the
   full reproduction. Pass --quick to restrict part 1 to two small
   circuits, --micro-only / --tables-only to run a single part.

   Part 3 times the flow and the experiment suite sequentially (jobs=1)
   and at every job count of the sweep (--jobs N or --jobs N1,N2,... /
   ROTARY_JOBS), and writes every measurement — per-kernel micro
   timings, per-circuit flow wall times with per-job-count speedups,
   the suite walls, job counts and git revision — to BENCH_results.json
   (schema v4: DESIGN.md "Bench results file").  --walls-only skips
   parts 1 and 2 (except that --quick still runs a reduced micro pass,
   so quick CI artifacts never carry an empty micro_kernels array);
   --min-suite-speedup F exits nonzero when the suite speedup at the
   highest job count falls below F (the CI floor, recorded in the
   artifact).

   Part 4 (--sizes 20k,100k,1m) runs the scaling suite: for each
   requested size the full six-stage flow at the highest sweep job
   count, recording generation wall, flow wall and the per-stage split
   into the schema-v4 size_sweep array.  --max-size-wall F exits
   nonzero when any requested size's flow wall exceeds F seconds (the
   CI scaling floor). *)

open Rc_core
module R = Rc_obs.Report

let print_table t = print_endline (R.to_text t)
let imp from to_ = R.Pct (Rc_util.Stats.pct_improvement ~from ~to_)

let quick = Array.exists (( = ) "--quick") Sys.argv
let micro_only = Array.exists (( = ) "--micro-only") Sys.argv
let tables_only = Array.exists (( = ) "--tables-only") Sys.argv
let walls_only = Array.exists (( = ) "--walls-only") Sys.argv

let flag_value name =
  let n = Array.length Sys.argv in
  let eq = name ^ "=" in
  let le = String.length eq in
  let rec scan i =
    if i >= n then None
    else if Sys.argv.(i) = name && i + 1 < n then Some Sys.argv.(i + 1)
    else if
      String.length Sys.argv.(i) > le && String.sub Sys.argv.(i) 0 le = eq
    then Some (String.sub Sys.argv.(i) le (String.length Sys.argv.(i) - le))
    else scan (i + 1)
  in
  scan 1

(* --jobs accepts a single count or a comma-separated sweep ("1,8") *)
let jobs_arg =
  match flag_value "--jobs" with
  | None -> None
  | Some s ->
      let parts = String.split_on_char ',' s in
      let counts = List.filter_map (fun p -> int_of_string_opt (String.trim p)) parts in
      if counts = [] then None else Some (List.sort_uniq compare counts)

let min_suite_speedup =
  Option.bind (flag_value "--min-suite-speedup") float_of_string_opt

(* --sizes accepts a comma-separated subset of the scaling suite, by
   short size ("20k") or full benchmark name ("size20k") *)
let sizes_arg =
  match flag_value "--sizes" with
  | None -> []
  | Some s ->
      List.map
        (fun part ->
          let p = String.trim (String.lowercase_ascii part) in
          let name = if String.length p > 0 && p.[0] <> 's' then "size" ^ p else p in
          match
            List.find_opt (fun b -> b.Bench_suite.bname = name) Bench_suite.sizes
          with
          | Some b -> b
          | None ->
              Printf.eprintf "[bench] unknown size %S (valid: %s)\n%!" part
                (String.concat ", "
                   (List.map (fun b -> b.Bench_suite.bname) Bench_suite.sizes));
              exit 2)
        (String.split_on_char ',' s)

let max_size_wall =
  Option.bind (flag_value "--max-size-wall") float_of_string_opt

let () = Option.iter (fun l -> Rc_par.Pool.set_jobs (List.fold_left max 1 l)) jobs_arg

let benches = if quick then Bench_suite.quick else Bench_suite.all

(* ---- part 1: reproduction ------------------------------------------- *)

let reproduce () =
  Printf.printf
    "=== Reproduction: Integrated Placement and Skew Optimization for Rotary Clocking ===\n\n%!";
  let _, t2 = Experiments.table2 ~benches () in
  print_table t2;
  print_newline ();
  let _, t1 = Experiments.table1 ~benches ~bb_seconds:(if quick then 5.0 else 120.0) () in
  print_table t1;
  print_newline ();
  Printf.eprintf "[bench] running flow suite (netflow + ILP) on %d circuits...\n%!"
    (List.length benches);
  let suite = Experiments.run_suite ~benches ~with_ilp:true ~log:true () in
  print_table (Experiments.table3 suite);
  print_newline ();
  print_table (Experiments.table4 suite);
  print_newline ();
  print_table (Experiments.table5 suite);
  print_newline ();
  print_table (Experiments.table6 suite);
  print_newline ();
  print_table (Experiments.table7 suite);
  print_newline ();
  let _, fig2 = Experiments.fig2 () in
  print_endline fig2;
  print_newline ();
  (* design-choice ablations (DESIGN.md section 6) *)
  Printf.eprintf "[bench] running ablations...\n%!";
  print_endline (String.concat "\n\n" (List.map R.to_text (Ablation.all ())));
  print_newline ();
  (* Section IX future-work extensions *)
  Printf.eprintf "[bench] running extensions (ring sweep, local trees)...\n%!";
  print_table (Ring_sweep.report (Ring_sweep.sweep Bench_suite.tiny ~grids:[ 1; 2; 3; 4 ]));
  print_newline ();
  let o = Flow.run (Flow.default_config Bench_suite.tiny) in
  (* per-stage regression surface: aggregated stage timings of the flow
     just run, independent of the end-to-end numbers above *)
  print_table (Flow_trace.summary ~title:"Per-stage summary (tiny, default flow)" o.Flow.trace);
  print_newline ();
  let ffs, _ = Flow.ff_index o.Flow.netlist in
  let ff_positions = Array.map (fun c -> o.Flow.positions.(c)) ffs in
  Printf.printf "Local tapping trees (tiny, Section IX future work):\n";
  List.iter
    (fun tol ->
      let lt =
        Rc_assign.Local_trees.build ~phase_tolerance:tol o.Flow.cfg.Flow.tech o.Flow.rings
          ~assignment:o.Flow.assignment ~ff_positions ~targets:o.Flow.skews
      in
      Printf.printf
        "  tolerance %5.1f ps: %2d taps for %d FFs, wire %6.0f um (plain %6.0f, %+.1f%%)\n" tol
        lt.Rc_assign.Local_trees.n_taps (Array.length ffs)
        lt.Rc_assign.Local_trees.total_wirelength lt.Rc_assign.Local_trees.plain_wirelength
        (-.Rc_util.Stats.pct_improvement ~from:lt.Rc_assign.Local_trees.plain_wirelength
             ~to_:lt.Rc_assign.Local_trees.total_wirelength))
    [ 1.0; 3.0; 5.0; 10.0 ];
  print_newline ();
  (* the Section I motivation, quantified on our own layouts *)
  Printf.eprintf "[bench] running variation study (s9234)...\n%!";
  let ov = Flow.run (Flow.default_config Bench_suite.s9234) in
  print_string (Variation_study.run ov).Variation_study.report;
  print_newline ();
  print_table (snd (Clocking_compare.run ov));
  print_newline ();
  Printf.eprintf "[bench] routing study (s9234)...\n%!";
  print_string (Routing_study.run ov).Routing_study.report;
  print_newline ();
  (* beyond the paper: detailed placement + relocate-and-heal stage 6 *)
  Printf.eprintf "[bench] running beyond-paper flow comparison...\n%!";
  print_table
    {
      R.title =
        "Beyond the paper: detailed placement + relocate-and-heal stage 6 vs the paper's \
         pseudo-net flow";
      columns =
        [ "Circuit"; "Paper flow tap WL"; "Paper tap red."; "Improved tap WL"; "Improved tap red.";
          "Improved signal vs paper's" ];
      rows =
        List.map
          (fun bench ->
            let d = Flow.run (Flow.default_config bench) in
            let i = Flow.run (Flow.improved_config bench) in
            [
              R.Str bench.Bench_suite.bname;
              R.Float (d.Flow.final.Flow.tapping_wl, 0);
              imp d.Flow.base.Flow.tapping_wl d.Flow.final.Flow.tapping_wl;
              R.Float (i.Flow.final.Flow.tapping_wl, 0);
              imp i.Flow.base.Flow.tapping_wl i.Flow.final.Flow.tapping_wl;
              R.Pct
                (-.Rc_util.Stats.pct_improvement ~from:d.Flow.final.Flow.signal_wl
                     ~to_:i.Flow.final.Flow.signal_wl);
            ])
          benches;
    }

(* ---- part 2: Bechamel micro-benchmarks ------------------------------- *)

open Bechamel
open Toolkit

(* shared small state for the kernels *)
let kernel_state =
  lazy
    (let bench = Bench_suite.tiny in
     let tech = Rc_tech.Tech.default in
     let netlist = Bench_suite.netlist bench in
     let chip = Bench_suite.chip bench in
     let rings =
       Rc_rotary.Ring_array.create ~chip ~grid:bench.Bench_suite.ring_grid ()
     in
     let placed = Rc_place.Qplace.initial netlist ~chip in
     let sta = Rc_timing.Sta.analyze tech netlist ~positions:placed.Rc_place.Qplace.positions in
     let problem = Flow.skew_problem_of_sta tech netlist sta in
     let schedule = Option.get (Rc_skew.Max_slack.solve_graph problem) in
     let ffs, _ = Flow.ff_index netlist in
     let ff_positions = Array.map (fun c -> placed.Rc_place.Qplace.positions.(c)) ffs in
     let targets = schedule.Rc_skew.Max_slack.skews in
     let assignment =
       Rc_assign.Assign.by_netflow tech rings ~ff_positions ~targets
     in
     (tech, netlist, chip, rings, placed, problem, schedule, ff_positions, targets, assignment))

let test_table1 =
  Test.make ~name:"table1:lp-relax+greedy-rounding"
    (Staged.stage (fun () ->
         let tech, _, _, rings, _, _, _, ff_positions, targets, _ = Lazy.force kernel_state in
         ignore (Rc_assign.Assign.by_ilp tech rings ~ff_positions ~targets)))

(* the same LP at s9234's size (151 rows, a bump of most of the basis),
   where the basis factorization's solves dominate *)
let s9234_stage2 = lazy (Experiments.stage2_state Bench_suite.s9234)

let test_table1_s9234 =
  Test.make ~name:"table1:lp-relax+greedy-rounding@s9234"
    (Staged.stage (fun () ->
         let st = Lazy.force s9234_stage2 in
         ignore
           (Rc_assign.Assign.by_ilp st.Experiments.tech st.Experiments.rings
              ~ff_positions:st.Experiments.ff_positions ~targets:st.Experiments.targets)))

let test_table2 =
  Test.make ~name:"table2:zero-skew-clock-tree"
    (Staged.stage (fun () ->
         let tech, _, _, _, _, _, _, ff_positions, _, _ = Lazy.force kernel_state in
         let sinks = Array.to_list (Array.map (fun p -> (p, tech.Rc_tech.Tech.c_ff)) ff_positions) in
         ignore (Rc_ctree.Ctree.build tech ~sinks)))

let test_table3 =
  Test.make ~name:"table3:netflow-assignment"
    (Staged.stage (fun () ->
         let tech, _, _, rings, _, _, _, ff_positions, targets, _ = Lazy.force kernel_state in
         ignore (Rc_assign.Assign.by_netflow tech rings ~ff_positions ~targets)))

let test_table4 =
  Test.make ~name:"table4:cost-driven-scheduling"
    (Staged.stage (fun () ->
         let tech, _, _, rings, _, problem, schedule, ff_positions, _, assignment =
           Lazy.force kernel_state
         in
         let anchors =
           Flow.anchors_of_assignment tech rings assignment ~ff_positions
             ~skews:schedule.Rc_skew.Max_slack.skews
         in
         match Rc_skew.Cost_driven.solve_minmax_graph problem ~slack:0.0 ~anchors with
         | Some r ->
             ignore
               (Rc_skew.Cost_driven.refine_toward_anchors problem ~slack:0.0 ~anchors
                  ~skews:r.Rc_skew.Cost_driven.skews)
         | None -> ()))

let test_table5 =
  Test.make ~name:"table5:max-slack-scheduling"
    (Staged.stage (fun () ->
         let _, _, _, _, _, problem, _, _, _, _ = Lazy.force kernel_state in
         ignore (Rc_skew.Max_slack.solve_graph problem)))

let test_table6 =
  Test.make ~name:"table6:power-model"
    (Staged.stage (fun () ->
         let tech, netlist, _, _, placed, _, _, _, _, assignment = Lazy.force kernel_state in
         ignore
           (Rc_power.Power.clock_power_mw tech
              ~tapping_wirelength:assignment.Rc_assign.Assign.total_cost
              ~n_ffs:(Rc_netlist.Netlist.n_ffs netlist));
         ignore (Rc_power.Power.signal_power_mw tech netlist placed.Rc_place.Qplace.positions)))

let test_table7 =
  Test.make ~name:"table7:incremental-placement"
    (Staged.stage (fun () ->
         let _, netlist, chip, _, placed, _, _, _, _, assignment = Lazy.force kernel_state in
         let ffs, _ = Flow.ff_index netlist in
         let pseudo =
           Array.to_list
             (Array.mapi
                (fun i cell ->
                  {
                    Rc_place.Qplace.cell;
                    anchor = assignment.Rc_assign.Assign.taps.(i).Rc_rotary.Tapping.point;
                    weight = 0.35;
                  })
                ffs)
         in
         (* a flow's first stage-6 call: the Laplacian is built here too *)
         let lap = Rc_place.Qplace.laplacian netlist ~chip in
         ignore
           (Rc_place.Qplace.incremental ~lap netlist ~chip
              ~prev:placed.Rc_place.Qplace.positions ~pseudo)))

let test_fig2 =
  Test.make ~name:"fig2:tapping-point-solver"
    (Staged.stage (fun () ->
         let tech, _, _, rings, _, _, _, ff_positions, targets, _ = Lazy.force kernel_state in
         let ring = Rc_rotary.Ring_array.ring rings 0 in
         Array.iteri
           (fun i ff -> ignore (Rc_rotary.Tapping.solve tech ring ~ff ~target:targets.(i)))
           ff_positions))

(* --- solver kernels behind the incremental layer (PR 4): the four hot
   solves the flow reuses across iterations, timed in isolation so the
   cold-path cost and the incremental win stay visible per kernel --- *)

(* CG on a qplace-shaped SPD system: 1-D Laplacian + unit diagonal
   (strictly diagonally dominant), seeded RHS *)
let cg_state =
  lazy
    (let n = 600 in
     let rng = Rc_util.Rng.create 4242 in
     let triplets = ref [] in
     for i = 0 to n - 1 do
       triplets := (i, i, 3.0) :: !triplets;
       if i + 1 < n then triplets := (i, i + 1, -1.0) :: (i + 1, i, -1.0) :: !triplets
     done;
     let m = Rc_sparse.Csr.of_triplets ~rows:n ~cols:n !triplets in
     let b = Array.init n (fun _ -> Rc_util.Rng.float rng 100.0) in
     (m, b, Rc_sparse.Cg.workspace n))

let test_cg =
  Test.make ~name:"cg:spd-solve"
    (Staged.stage (fun () ->
         let m, b, ws = Lazy.force cg_state in
         ignore (Rc_sparse.Cg.solve ~ws m b)))

(* the Fig. 4 min-cost-flow assignment on a seeded bipartite instance *)
let mcmf_state =
  lazy
    (let n_items = 200 and n_bins = 16 in
     let rng = Rc_util.Rng.create 1717 in
     let cands =
       List.concat
         (List.init n_items (fun i ->
              List.init 6 (fun k ->
                  {
                    Rc_netflow.Assignment.item = i;
                    bin = (i + (k * 5)) mod n_bins;
                    cost = Rc_util.Rng.float rng 50.0;
                  })))
     in
     (n_items, n_bins, Array.make n_bins ((n_items / n_bins) + 4), cands))

let test_mcmf =
  Test.make ~name:"mcmf:assignment-solve"
    (Staged.stage (fun () ->
         let n_items, n_bins, capacities, cands = Lazy.force mcmf_state in
         ignore (Rc_netflow.Assignment.solve ~n_items ~n_bins ~capacities cands)))

(* the MCMF core at scaling-suite size: a bipartite instance shaped
   like the size20k assignment (~12% flip-flops of 20k cells over an
   8x8 ring array).  Each run rebuilds the network (solve consumes
   capacity), so the figure includes the build. *)
let mcmf_scaled_state =
  lazy
    (let n_items = 2400 and n_bins = 64 in
     let rng = Rc_util.Rng.create 20026 in
     let cand_bin = Array.init (n_items * 6) (fun k -> ((k / 6) + (k mod 6 * 11)) mod n_bins) in
     let cand_cost = Array.init (n_items * 6) (fun _ -> Rc_util.Rng.float rng 50.0) in
     (n_items, n_bins, cand_bin, cand_cost))

let build_mcmf_scaled () =
  let n_items, n_bins, cand_bin, cand_cost = Lazy.force mcmf_scaled_state in
  let source = 0 and sink = 1 + n_items + n_bins in
  let net = Rc_netflow.Mcmf.create (sink + 1) in
  for i = 0 to n_items - 1 do
    ignore (Rc_netflow.Mcmf.add_arc net ~src:source ~dst:(1 + i) ~capacity:1 ~cost:0.0)
  done;
  let bin_cap = (n_items / n_bins) + 4 in
  for j = 0 to n_bins - 1 do
    ignore
      (Rc_netflow.Mcmf.add_arc net ~src:(1 + n_items + j) ~dst:sink ~capacity:bin_cap
         ~cost:0.0)
  done;
  Array.iteri
    (fun k bin ->
      ignore
        (Rc_netflow.Mcmf.add_arc net ~src:(1 + (k / 6)) ~dst:(1 + n_items + bin)
           ~capacity:1 ~cost:cand_cost.(k)))
    cand_bin;
  (net, source, sink, n_items)

let test_mcmf_scaled =
  Test.make ~name:"mcmf_scaled:bucket-dijkstra"
    (Staged.stage (fun () ->
         let net, source, sink, amount = build_mcmf_scaled () in
         ignore (Rc_netflow.Mcmf.solve net ~source ~sink ~amount)))

(* per-flip-flop Eq. 1 candidate construction: nearest rings + one tap
   solve per candidate (the input to stage 3, cached by Assign.cache) *)
let test_eq1_candidates =
  Test.make ~name:"eq1:candidate-taps"
    (Staged.stage (fun () ->
         let tech, _, _, rings, _, _, _, ff_positions, targets, _ = Lazy.force kernel_state in
         Array.iteri
           (fun i ff ->
             List.iter
               (fun rj ->
                 ignore
                   (Rc_rotary.Tapping.solve tech
                      (Rc_rotary.Ring_array.ring rings rj)
                      ~ff ~target:targets.(i)))
               (Rc_rotary.Ring_array.rings_near rings ff 6))
           ff_positions))

let test_sta_cold =
  Test.make ~name:"sta:analyze-cold"
    (Staged.stage (fun () ->
         let tech, netlist, _, _, placed, _, _, _, _, _ = Lazy.force kernel_state in
         ignore (Rc_timing.Sta.analyze tech netlist ~positions:placed.Rc_place.Qplace.positions)))

(* incremental STA: alternate between two placements differing in every
   8th cell, so every run re-evaluates the same dirty cone set *)
let sta_inc_state =
  lazy
    (let tech, netlist, _, _, placed, _, _, _, _, _ = Lazy.force kernel_state in
     let pos_a = placed.Rc_place.Qplace.positions in
     let pos_b =
       Array.mapi
         (fun c (p : Rc_geom.Point.t) ->
           if c mod 8 = 0 then Rc_geom.Point.make (p.Rc_geom.Point.x +. 1.0) p.Rc_geom.Point.y
           else p)
         pos_a
     in
     let sess = Rc_timing.Sta.make_session tech netlist in
     ignore (Rc_timing.Sta.analyze_batch sess ~positions:pos_a);
     (sess, pos_a, pos_b, ref false))

let test_sta_incremental =
  Test.make ~name:"sta:analyze-incremental"
    (Staged.stage (fun () ->
         let sess, pos_a, pos_b, flip = Lazy.force sta_inc_state in
         let positions = if !flip then pos_a else pos_b in
         flip := not !flip;
         ignore (Rc_timing.Sta.analyze_batch sess ~positions)))

let micro ?(reduced = false) () =
  Printf.printf "=== Bechamel micro-benchmarks (one kernel per table)%s ===\n%!"
    (if reduced then " [reduced reps]" else "");
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        test_table1;
        test_table1_s9234;
        test_table2;
        test_table3;
        test_table4;
        test_table5;
        test_table6;
        test_table7;
        test_fig2;
        test_cg;
        test_mcmf;
        test_mcmf_scaled;
        test_eq1_candidates;
        test_sta_cold;
        test_sta_incremental;
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  (* reduced mode (--quick): same kernels, fewer reps — the artifact
     still carries every kernel, just with wider error bars *)
  let limit = if reduced then 300 else 2000
  and quota = Time.second (if reduced then 0.1 else 0.5) in
  let cfg = Benchmark.cfg ~limit ~quota ~stabilize:true ~compaction:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (Instance.monotonic_clock :> Measure.witness) raw in
  let timings =
    List.sort compare
      (Hashtbl.fold
         (fun name ols_result acc ->
           match Analyze.OLS.estimates ols_result with
           | Some [ t ] -> (name, Some t) :: acc
           | _ -> (name, None) :: acc)
         results [])
  in
  List.iter
    (fun (name, t) ->
      match t with
      | Some t -> Printf.printf "  %-38s %12.1f ns/run\n" name t
      | None -> Printf.printf "  %-38s (no estimate)\n" name)
    timings;
  print_newline ();
  timings

(* ---- part 3: sequential vs parallel wall time + results file --------- *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None)
  with _ -> None

let wall f = snd (Rc_util.Timer.time f)

(* the parallel job counts to sweep (always measured against jobs=1) *)
let sweep_jobs =
  let explicit = match jobs_arg with Some l -> l | None -> [ Rc_par.Pool.jobs () ] in
  match List.filter (fun j -> j > 1) explicit with [] -> [ Rc_par.Pool.jobs () ] | l -> l

let top_jobs = List.fold_left max 1 sweep_jobs
let speedup_of seq par = seq /. Float.max par 1e-9

(* one sequential run plus one run per sweep job count per circuit (and
   the suite as a whole, which also parallelizes across circuit arms).
   The sequential run of each circuit also records its final quality
   snapshot and its solver-metric delta, so the bench trajectory carries
   comparable quality numbers alongside the wall times. *)
let compare_walls () =
  let at j f =
    Rc_par.Pool.set_jobs j;
    f ()
  in
  let flows =
    List.map
      (fun bench ->
        let outcome = ref None in
        let seq =
          at 1 (fun () ->
              Rc_obs.Metrics.set_enabled true;
              let before = Rc_obs.Metrics.snapshot () in
              let w = wall (fun () -> outcome := Some (Flow.run (Flow.default_config bench))) in
              let metrics =
                Rc_obs.Metrics.diff ~before ~after:(Rc_obs.Metrics.snapshot ())
              in
              Rc_obs.Metrics.set_enabled false;
              (w, metrics))
        in
        let runs =
          List.map
            (fun j ->
              (j, at j (fun () -> wall (fun () -> ignore (Flow.run (Flow.default_config bench))))))
            sweep_jobs
        in
        let wall_seq, metrics = seq in
        (bench.Bench_suite.bname, wall_seq, runs, Option.get !outcome, metrics))
      benches
  in
  let suite_seq =
    at 1 (fun () -> wall (fun () -> ignore (Experiments.run_suite ~benches ~with_ilp:false ())))
  in
  let suite_runs =
    List.map
      (fun j ->
        (j, at j (fun () -> wall (fun () -> ignore (Experiments.run_suite ~benches ~with_ilp:false ())))))
      sweep_jobs
  in
  Rc_par.Pool.set_jobs top_jobs;
  print_table
    {
      R.title =
        Printf.sprintf "Wall time: sequential (--jobs 1) vs parallel (--jobs %s)"
          (String.concat "," (List.map string_of_int sweep_jobs));
      columns = [ "Run"; "Jobs"; "Seq (s)"; "Par (s)"; "Speedup" ];
      rows =
        List.concat_map
          (fun (name, seq, runs) ->
            List.map
              (fun (j, par) ->
                [ R.Str name; R.Int j; R.Float (seq, 2); R.Float (par, 2);
                  R.Float (speedup_of seq par, 2) ])
              runs)
          (List.map (fun (name, seq, runs, _, _) -> (name, seq, runs)) flows
          @ [ ("suite", suite_seq, suite_runs) ]);
    };
  print_newline ();
  (flows, (suite_seq, suite_runs))

(* ---- part 4: scaling-suite size sweep (--sizes) ---------------------- *)

(* aggregate the flow trace into one wall-time bucket per stage name *)
let stage_split trace =
  List.map
    (fun stage ->
      let w =
        List.fold_left
          (fun acc (e : Flow_trace.event) ->
            if e.Flow_trace.stage = stage then acc +. e.Flow_trace.wall_s else acc)
          0.0 (Flow_trace.events trace)
      in
      (stage, w))
    (Flow_trace.stage_names trace)

(* one full-flow run per requested size at the top sweep job count;
   generation is timed separately so the table shows where the wall
   goes as the circuits grow two orders of magnitude *)
let run_sizes benches =
  Rc_par.Pool.set_jobs top_jobs;
  let rows =
    List.map
      (fun bench ->
        let n_logic, n_ffs = Bench_suite.profile bench in
        let n_cells = n_logic + n_ffs in
        Printf.eprintf "[bench] size sweep: %s (%d cells) at jobs=%d...\n%!"
          bench.Bench_suite.bname n_cells top_jobs;
        let gen_s = wall (fun () -> ignore (Bench_suite.netlist bench)) in
        let outcome = ref None in
        let flow_s =
          wall (fun () -> outcome := Some (Flow.run (Flow.default_config bench)))
        in
        let o = Option.get !outcome in
        (bench.Bench_suite.bname, n_cells, n_ffs, gen_s, flow_s, o))
      benches
  in
  print_table
    {
      R.title = Printf.sprintf "Scaling suite: full flow at jobs=%d" top_jobs;
      columns = [ "Circuit"; "Cells"; "FFs"; "Gen (s)"; "Flow (s)"; "Tap WL (um)"; "AFD (um)" ];
      rows =
        List.map
          (fun (name, n_cells, n_ffs, gen_s, flow_s, (o : Flow.outcome)) ->
            [
              R.Str name; R.Int n_cells; R.Int n_ffs; R.Float (gen_s, 1); R.Float (flow_s, 1);
              R.Float (o.Flow.final.Flow.tapping_wl, 0); R.Float (o.Flow.final.Flow.afd, 1);
            ])
          rows;
    };
  print_newline ();
  rows

let size_sweep_json rows =
  let module J = Rc_util.Json in
  J.List
    (List.map
       (fun (name, n_cells, n_ffs, gen_s, flow_s, (o : Flow.outcome)) ->
         J.Obj
           [
             ("circuit", J.String name);
             ("n_cells", J.Int n_cells);
             ("n_ffs", J.Int n_ffs);
             ("jobs", J.Int top_jobs);
             ("gen_s", J.Float gen_s);
             ("flow_s", J.Float flow_s);
             ( "stages",
               J.Obj
                 (List.map (fun (s, w) -> (s, J.Float w)) (stage_split o.Flow.trace)) );
             ( "final",
               J.Obj
                 [
                   ("tapping_wl_um", J.Float o.Flow.final.Flow.tapping_wl);
                   ("signal_wl_um", J.Float o.Flow.final.Flow.signal_wl);
                   ("total_mw", J.Float o.Flow.final.Flow.total_mw);
                   ("afd_um", J.Float o.Flow.final.Flow.afd);
                 ] );
           ])
       rows)

let sweep_json seq runs =
  let module J = Rc_util.Json in
  J.List
    (List.map
       (fun (j, par) ->
         J.Obj
           [
             ("jobs", J.Int j);
             ("wall_s", J.Float par);
             ("speedup_vs_seq", J.Float (speedup_of seq par));
           ])
       runs)

let results_json micro_timings size_rows (flows, (suite_seq, suite_runs)) =
  let module J = Rc_util.Json in
  let top_of runs = List.assoc top_jobs runs in
  J.Obj
    [
      (* schema v5: a "service" key (supervisor loadgen run) may be
         merged in by bench/loadgen.exe --key service; absent until a
         loadgen run has been recorded.  schema v7: loadgen --mix eco
         additionally merges ECO edit-latency percentiles under
         service.eco *)
      ("schema_version", J.Int 7);
      ("git_rev", match git_rev () with Some r -> J.String r | None -> J.Null);
      ("jobs", J.Int (Rc_par.Pool.jobs ()));
      ("jobs_sweep", J.List (List.map (fun j -> J.Int j) (1 :: sweep_jobs)));
      (* schema v3: the CI regression floor on the top-job-count suite
         speedup, recorded in the artifact next to the measurement *)
      ( "suite_speedup_floor",
        match min_suite_speedup with Some f -> J.Float f | None -> J.Null );
      ("quick", J.Bool quick);
      ( "micro_kernels",
        J.List
          (List.map
             (fun (name, t) ->
               J.Obj
                 [
                   ("name", J.String name);
                   ("ns_per_run", match t with Some t -> J.Float t | None -> J.Null);
                 ])
             micro_timings) );
      ( "flow_wall_s",
        J.List
          (List.map
             (fun (name, seq, runs, (outcome : Flow.outcome), metrics) ->
               let s = outcome.Flow.final in
               let par = top_of runs in
               J.Obj
                 [
                   ("circuit", J.String name);
                   ("jobs1_s", J.Float seq);
                   ("jobsN_s", J.Float par);
                   ("speedup", J.Float (speedup_of seq par));
                   (* schema v3: per-circuit speedup at the top job
                      count plus the full per-job-count sweep *)
                   ("speedup_vs_seq", J.Float (speedup_of seq par));
                   ("sweep", sweep_json seq runs);
                   (* schema v2: quality of the converged flow, so the
                      trajectory records what the time bought *)
                   ( "final",
                     J.Obj
                       [
                         ("tapping_wl_um", J.Float s.Flow.tapping_wl);
                         ("signal_wl_um", J.Float s.Flow.signal_wl);
                         ("total_wl_um", J.Float s.Flow.total_wl);
                         ("max_load_ff", J.Float s.Flow.max_load_ff);
                         ("total_mw", J.Float s.Flow.total_mw);
                         ("afd_um", J.Float s.Flow.afd);
                       ] );
                   (* schema v2: solver-metric delta of the jobs=1 run *)
                   ("metrics", Rc_obs.Metrics.to_json metrics);
                 ])
             flows) );
      ( "suite_wall_s",
        J.Obj
          [
            ("jobs1_s", J.Float suite_seq);
            ("jobsN_s", J.Float (top_of suite_runs));
            ("speedup", J.Float (speedup_of suite_seq (top_of suite_runs)));
            ("speedup_vs_seq", J.Float (speedup_of suite_seq (top_of suite_runs)));
            ("sweep", sweep_json suite_seq suite_runs);
          ] );
      (* schema v4: the scaling-suite sweep (empty unless --sizes ran),
         plus its CI wall-time floor recorded next to the measurement *)
      ("size_sweep", size_sweep_json size_rows);
      ( "max_size_wall_s",
        match max_size_wall with Some f -> J.Float f | None -> J.Null );
    ]

let () =
  Printf.printf "[bench] jobs = %d%s\n%!" (Rc_par.Pool.jobs ())
    (if quick then " (quick)" else "");
  if (not micro_only) && not walls_only then reproduce ();
  (* --quick always runs the micro pass (reduced reps under --walls-only)
     so quick artifacts never carry an empty micro_kernels array *)
  let micro_timings =
    if tables_only then []
    else if walls_only && not quick then []
    else micro ~reduced:quick ()
  in
  let walls = compare_walls () in
  let size_rows = if sizes_arg = [] then [] else run_sizes sizes_arg in
  let path = "BENCH_results.json" in
  Rc_util.Json.to_file path (results_json micro_timings size_rows walls);
  Printf.printf "[bench] wrote %s\n%!" path;
  (match max_size_wall with
  | Some floor ->
      List.iter
        (fun (name, _, _, _, flow_s, _) ->
          if flow_s > floor then begin
            Printf.printf "[bench] FAIL: %s flow wall %.1fs above floor %.1fs\n%!" name
              flow_s floor;
            exit 1
          end
          else
            Printf.printf "[bench] %s flow wall %.1fs (floor %.1fs)\n%!" name flow_s floor)
        size_rows
  | None -> ());
  let _, (suite_seq, suite_runs) = walls in
  let suite_speedup = speedup_of suite_seq (List.assoc top_jobs suite_runs) in
  match min_suite_speedup with
  | Some floor when suite_speedup < floor ->
      Printf.printf "[bench] FAIL: suite speedup %.2fx at jobs=%d below floor %.2fx\n%!"
        suite_speedup top_jobs floor;
      exit 1
  | Some floor ->
      Printf.printf "[bench] suite speedup %.2fx at jobs=%d (floor %.2fx)\n%!" suite_speedup
        top_jobs floor
  | None -> ()
