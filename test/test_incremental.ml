(* The incremental layer's contract: every reuse tier — incremental
   STA, the Eq. 1 candidate-tap cache, the cached assignment solver, and
   the rings_near shell search — is bit-identical to the cold path,
   under randomized displacement sequences and for any job count, and
   the whole flow is bit-identical to its cold reference.  Plus a
   min-cost flow past an unreachable bin, and the pool's sequential
   cutoffs. *)

open Rc_core
open Rc_geom

let tech = Rc_tech.Tech.default

let with_jobs n f =
  Rc_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Rc_par.Pool.set_jobs 1) f

let tiny = Bench_suite.tiny
let tiny_netlist = lazy (Bench_suite.netlist tiny)
let tiny_chip = Bench_suite.chip tiny

let tiny_placed =
  lazy (Rc_place.Qplace.initial (Lazy.force tiny_netlist) ~chip:tiny_chip)

(* move a random ~[frac] of the cells by up to [amp] um in each axis *)
let perturb rng ~frac ~amp positions =
  Array.iteri
    (fun c (p : Point.t) ->
      if Rc_util.Rng.float rng 1.0 < frac then
        positions.(c) <-
          Point.make
            (p.Point.x +. Rc_util.Rng.float_in rng (-.amp) amp)
            (p.Point.y +. Rc_util.Rng.float_in rng (-.amp) amp))
    positions

(* ---- incremental STA -------------------------------------------------- *)

let check_sta_equal name (cold : Rc_timing.Sta.t) (inc : Rc_timing.Sta.t) =
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check int)
    (name ^ ": n_pairs") (Array.length cold.src) (Array.length inc.src);
  Alcotest.(check bool)
    (name ^ ": pair arrays bit-identical") true
    (cold.src = inc.src && cold.dst = inc.dst
    && bits cold.d_max = bits inc.d_max
    && bits cold.d_min = bits inc.d_min);
  Alcotest.(check bool)
    (name ^ ": critical delay bit-identical") true
    (Int64.bits_of_float cold.critical = Int64.bits_of_float inc.critical)

let test_sta_incremental_matches () =
  let netlist = Lazy.force tiny_netlist in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let pos = Array.copy (Lazy.force tiny_placed).Rc_place.Qplace.positions in
          let sess = Rc_timing.Sta.make_session tech netlist in
          let rng = Rc_util.Rng.create ((jobs * 991) + 7) in
          for step = 0 to 5 do
            (* step 0: cold; later steps displace 0 %, 5 %, 30 %, 100 % ... *)
            if step > 0 then
              perturb rng ~frac:[| 0.0; 0.05; 0.3; 1.0; 0.1 |].((step - 1) mod 5) ~amp:25.0 pos;
            let inc = Rc_timing.Sta.analyze_batch sess ~positions:pos in
            let cold = Rc_timing.Sta.analyze tech netlist ~positions:pos in
            check_sta_equal (Printf.sprintf "jobs=%d step %d" jobs step) cold inc
          done;
          (* identical positions again: the pure-replay tier *)
          let replay = Rc_timing.Sta.analyze_batch sess ~positions:pos in
          let cold = Rc_timing.Sta.analyze tech netlist ~positions:pos in
          check_sta_equal (Printf.sprintf "jobs=%d replay" jobs) cold replay))
    [ 1; 2; 4 ]

(* ---- cached candidate taps + assignment through by_netflow ----------- *)

let check_assign_equal name (a : Rc_assign.Assign.t) (b : Rc_assign.Assign.t) =
  Alcotest.(check (array int))
    (name ^ ": ring_of_ff") a.Rc_assign.Assign.ring_of_ff b.Rc_assign.Assign.ring_of_ff;
  Alcotest.(check bool)
    (name ^ ": total_cost bit-identical") true
    (a.Rc_assign.Assign.total_cost = b.Rc_assign.Assign.total_cost);
  Alcotest.(check bool)
    (name ^ ": max_load bit-identical") true
    (a.Rc_assign.Assign.max_load = b.Rc_assign.Assign.max_load);
  Alcotest.(check bool)
    (name ^ ": taps bit-identical") true
    (a.Rc_assign.Assign.taps = b.Rc_assign.Assign.taps)

let test_by_netflow_cached_matches () =
  let netlist = Lazy.force tiny_netlist in
  let rings = Rc_rotary.Ring_array.create ~chip:tiny_chip ~grid:tiny.Bench_suite.ring_grid () in
  let ffs, _ = Flow.ff_index netlist in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let cache = Rc_assign.Assign.make_cache () in
          let rng = Rc_util.Rng.create ((jobs * 131) + 5) in
          let pos = (Lazy.force tiny_placed).Rc_place.Qplace.positions in
          let ffp = Array.map (fun c -> pos.(c)) ffs in
          let targets = Array.map (fun _ -> Rc_util.Rng.float rng 200.0) ffs in
          for step = 0 to 5 do
            (* moved fractions span replay (0), a few, and all *)
            if step > 0 then begin
              perturb rng ~frac:[| 0.0; 0.1; 1.0; 0.05; 0.3 |].((step - 1) mod 5) ~amp:30.0 ffp;
              Array.iteri
                (fun i t ->
                  if Rc_util.Rng.float rng 1.0 < 0.2 then
                    targets.(i) <- t +. Rc_util.Rng.float_in rng (-10.0) 10.0)
                targets
            end;
            let cached =
              Rc_assign.Assign.by_netflow ~cache tech rings ~ff_positions:ffp ~targets
            in
            let cold = Rc_assign.Assign.by_netflow tech rings ~ff_positions:ffp ~targets in
            check_assign_equal (Printf.sprintf "jobs=%d step %d" jobs step) cold cached
          done))
    [ 1; 2; 4 ]

(* ---- cached assignment solver directly ------------------------------- *)

let check_result_equal name (a : Rc_netflow.Assignment.result) (b : Rc_netflow.Assignment.result)
    =
  Alcotest.(check (array int))
    (name ^ ": assignment") a.Rc_netflow.Assignment.assignment b.Rc_netflow.Assignment.assignment;
  Alcotest.(check int64)
    (name ^ ": total_cost bits")
    (Int64.bits_of_float a.Rc_netflow.Assignment.total_cost)
    (Int64.bits_of_float b.Rc_netflow.Assignment.total_cost);
  Alcotest.(check int) (name ^ ": assigned") a.Rc_netflow.Assignment.assigned
    b.Rc_netflow.Assignment.assigned

(* Walk one fixed candidate structure ([per_item] candidates per item,
   the k-th in bin [bin_of i k]) through [steps] cost updates, checking
   [solve_with] against a cold [solve] at every step.  Step 1 repeats
   step 0's input: the replay path. *)
let check_cost_walk ~name ~n_items ~n_bins ~capacities ~per_item ~bin_of ~draw ~update ~steps =
  let costs = Array.init n_items (fun _ -> Array.init per_item (fun _ -> draw ())) in
  let cands () =
    List.concat
      (List.init n_items (fun i ->
           List.init per_item (fun k ->
               { Rc_netflow.Assignment.item = i; bin = bin_of i k; cost = costs.(i).(k) })))
  in
  let solver = Rc_netflow.Assignment.make_solver ~n_items ~n_bins ~capacities in
  for step = 0 to steps - 1 do
    if step > 1 then update costs;
    let l = cands () in
    let cached = Rc_netflow.Assignment.solve_with solver l in
    let cold = Rc_netflow.Assignment.solve ~n_items ~n_bins ~capacities l in
    check_result_equal (Printf.sprintf "%s step %d" name step) cold cached
  done

let test_solve_with_matches () =
  let rng = Rc_util.Rng.create 8080 in
  (* generic float costs, about 10 % of the arcs walked per step; bin
     n_bins-1 stays empty in the 3-candidate trials, so the duals always
     see an unreachable bin vertex *)
  List.iter
    (fun (n_items, n_bins, per_item) ->
      check_cost_walk
        ~name:(Printf.sprintf "%dx%d" n_items n_bins)
        ~n_items ~n_bins
        ~capacities:(Array.make n_bins ((n_items / n_bins) + 2))
        ~per_item
        ~bin_of:(fun i k -> (i + (k * 3)) mod (max 1 (n_bins - 1)))
        ~draw:(fun () -> Rc_util.Rng.float rng 100.0)
        ~update:
          (Array.iter (fun row ->
               Array.iteri
                 (fun k c ->
                   if Rc_util.Rng.float rng 1.0 < 0.1 then
                     row.(k) <- Float.abs (c +. Rc_util.Rng.float_in rng (-20.0) 20.0))
                 row))
        ~steps:8)
    [ (24, 5, 3); (40, 8, 3); (15, 4, 4) ];
  (* tied integer costs in {0..3} under tight capacities, one item's
     costs redrawn per step: many equal-cost optima, so a cached answer
     that is merely optimal, not the cold one, shows here *)
  List.iter
    (fun (n_items, n_bins, capacity, per_item) ->
      check_cost_walk
        ~name:(Printf.sprintf "ties %dx%d" n_items n_bins)
        ~n_items ~n_bins
        ~capacities:(Array.make n_bins capacity)
        ~per_item
        ~bin_of:(fun i k -> (i + k) mod n_bins)
        ~draw:(fun () -> float_of_int (Rc_util.Rng.int rng 4))
        ~update:(fun costs ->
          let row = costs.(Rc_util.Rng.int rng n_items) in
          Array.iteri (fun k _ -> row.(k) <- float_of_int (Rc_util.Rng.int rng 4)) row)
        ~steps:40)
    [ (6, 2, 2, 2); (12, 3, 3, 2); (20, 4, 4, 3) ]

(* ---- rings_near shell search vs full sort ----------------------------- *)

let test_rings_near_equivalence () =
  let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:900.0 ~ymax:900.0 in
  List.iter
    (fun grid ->
      let arr = Rc_rotary.Ring_array.create ~chip ~grid () in
      let nr = Rc_rotary.Ring_array.n_rings arr in
      let centers =
        Array.init nr (fun i ->
            Rect.center (Rc_rotary.Ring_array.ring arr i).Rc_rotary.Ring.rect)
      in
      let brute p k =
        let scored = Array.init nr (fun i -> (Point.manhattan centers.(i) p, i)) in
        Array.sort compare scored;
        Array.to_list (Array.map snd (Array.sub scored 0 (min k nr)))
      in
      let rng = Rc_util.Rng.create (grid + 12345) in
      for _ = 1 to 60 do
        (* queries inside, outside, and far off the chip *)
        let p =
          Point.make (Rc_util.Rng.float_in rng (-300.0) 1200.0)
            (Rc_util.Rng.float_in rng (-300.0) 1200.0)
        in
        List.iter
          (fun k ->
            Alcotest.(check (list int))
              (Printf.sprintf "grid=%d k=%d (%.1f, %.1f)" grid k p.Point.x p.Point.y)
              (brute p k)
              (Rc_rotary.Ring_array.rings_near arr p k))
          [ 1; 2; 6; 13; (2 * nr) ]
      done)
    [ 2; 5; 6; 7 ]

(* ---- a bin no candidate reaches --------------------------------------- *)

(* A bin vertex no candidate arc reaches is unreachable from the source,
   but still has its capacity arc to the sink.  The flow must ship the
   one unit through the reachable bin at its candidate cost. *)
let test_potentials_unreachable_sentinel () =
  let open Rc_netflow in
  (* s=0, item=1, bin1=2, bin2=3 (empty), t=4 *)
  let net = Mcmf.create 5 in
  ignore (Mcmf.add_arc net ~src:0 ~dst:1 ~capacity:1 ~cost:0.0);
  ignore (Mcmf.add_arc net ~src:1 ~dst:2 ~capacity:1 ~cost:5.0);
  ignore (Mcmf.add_arc net ~src:2 ~dst:4 ~capacity:1 ~cost:0.0);
  ignore (Mcmf.add_arc net ~src:3 ~dst:4 ~capacity:1 ~cost:0.0);
  let o = Mcmf.solve net ~source:0 ~sink:4 in
  Alcotest.(check int) "ships the one unit" 1 o.Mcmf.flow;
  Alcotest.(check bool) "at the candidate cost" true (o.Mcmf.cost = 5.0)

(* end-to-end: assignment on a graph with an empty bin, through the
   cached solver's replay and cold paths, stays optimal and
   bit-identical *)
let test_assignment_empty_bin () =
  let capacities = [| 2; 2; 2 |] in
  let cands c0 =
    [
      { Rc_netflow.Assignment.item = 0; bin = 0; cost = c0 };
      { Rc_netflow.Assignment.item = 0; bin = 1; cost = 9.0 };
      { Rc_netflow.Assignment.item = 1; bin = 0; cost = 4.0 };
      { Rc_netflow.Assignment.item = 1; bin = 1; cost = 6.0 };
      { Rc_netflow.Assignment.item = 2; bin = 1; cost = 2.0 };
    ]
  in
  let solver = Rc_netflow.Assignment.make_solver ~n_items:3 ~n_bins:3 ~capacities in
  List.iter
    (fun c0 ->
      let cached = Rc_netflow.Assignment.solve_with solver (cands c0) in
      let cold = Rc_netflow.Assignment.solve ~n_items:3 ~n_bins:3 ~capacities (cands c0) in
      check_result_equal (Printf.sprintf "empty bin c0=%.1f" c0) cold cached)
    [ 3.0; 3.0; 11.0; 1.0 ]

(* ---- the flow against its cold reference ------------------------------ *)

(* The flow's own plan with every stage run on emptied caches: no result
   of this run can come from a cache, so it is the reference the cached
   flow must match bit for bit.  A cache that replays a value keyed on
   too little makes the two runs differ. *)
let cold_plan cfg =
  let cold (st : Flow_stage.t) =
    {
      st with
      Flow_stage.run =
        (fun ctx ->
          Flow_cache.reset ctx.Flow_ctx.caches;
          st.Flow_stage.run ctx);
    }
  in
  let p = Flow.plan_of_config cfg in
  {
    Flow.place = cold p.Flow.place;
    schedule = cold p.Flow.schedule;
    assign = cold p.Flow.assign;
    cost_schedule = cold p.Flow.cost_schedule;
    evaluate = cold p.Flow.evaluate;
    replace = cold p.Flow.replace;
  }

let snapshot_bits (s : Flow.snapshot) =
  List.map Int64.bits_of_float
    [
      s.Flow.afd;
      s.Flow.tapping_wl;
      s.Flow.signal_wl;
      s.Flow.total_wl;
      s.Flow.clock_mw;
      s.Flow.signal_mw;
      s.Flow.total_mw;
      s.Flow.max_load_ff;
    ]

let test_flow_matches_cold () =
  List.iter
    (fun (bench, pin) ->
      let name = bench.Bench_suite.bname in
      let cfg = Flow.default_config bench in
      let cached = Flow.run cfg in
      let cold = Flow.run ~plan:(cold_plan cfg) cfg in
      let digest = Rc_serve.Checkpoint.digest_of_outcome in
      Alcotest.(check string) (name ^ ": digest") (digest cold) (digest cached);
      Alcotest.(check (list int64))
        (name ^ ": final snapshot bits")
        (snapshot_bits cold.Flow.final) (snapshot_bits cached.Flow.final);
      Option.iter
        (fun pin -> Alcotest.(check string) (name ^ ": Table II pin") pin (digest cached))
        pin)
    [ (tiny, None); (Bench_suite.s9234, Some "8e6041d5e058485ce95bfa934681807a") ]

(* ---- pool sequential cutoffs ------------------------------------------ *)

let test_pool_min_items_cutoff () =
  with_jobs 4 (fun () ->
      let saw_region = ref false in
      Rc_par.Pool.for_ ~min_items:1000 100 (fun _ ->
          if Rc_par.Pool.in_parallel_region () then saw_region := true);
      Alcotest.(check bool) "below cutoff runs in the caller" false !saw_region;
      Rc_par.Pool.for_ ~min_items:10 100 (fun _ ->
          if Rc_par.Pool.in_parallel_region () then saw_region := true);
      Alcotest.(check bool) "above cutoff uses the pool" true !saw_region;
      (* results are identical regardless of which side of the cutoff:
         map's is fixed at two elements *)
      Alcotest.(check (array int))
        "map below cutoff" [| 21 |]
        (Rc_par.Pool.map (fun i -> i * 3) [| 7 |]);
      Alcotest.(check (array int))
        "map above cutoff"
        (Array.init 100 (fun i -> i * 3))
        (Rc_par.Pool.map (fun i -> i * 3) (Array.init 100 Fun.id)))

let test_pool_both_sequential () =
  with_jobs 4 (fun () ->
      let in_region = ref true in
      let a, b =
        Rc_par.Pool.both ~parallel:false
          (fun () ->
            in_region := Rc_par.Pool.in_parallel_region ();
            21)
          (fun () -> 2)
      in
      Alcotest.(check bool) "thunks run in the caller" false !in_region;
      Alcotest.(check int) "results intact" 42 (a * b))

let () =
  Alcotest.run "rc_incremental"
    [
      ( "sta",
        [ Alcotest.test_case "incremental = cold, jobs 1/2/4" `Quick test_sta_incremental_matches ]
      );
      ( "assign",
        [
          Alcotest.test_case "cached by_netflow = cold, jobs 1/2/4" `Quick
            test_by_netflow_cached_matches;
        ] );
      ( "netflow",
        [
          Alcotest.test_case "solve_with = solve over cost walks" `Quick test_solve_with_matches;
          Alcotest.test_case "unreachable potentials sentinel" `Quick
            test_potentials_unreachable_sentinel;
          Alcotest.test_case "empty bin stays optimal warm" `Quick test_assignment_empty_bin;
        ] );
      ( "rotary",
        [ Alcotest.test_case "rings_near shell = full sort" `Quick test_rings_near_equivalence ]
      );
      ( "flow",
        [ Alcotest.test_case "cached = cold plan, tiny and s9234" `Quick test_flow_matches_cold ]
      );
      ( "pool",
        [
          Alcotest.test_case "min_items cutoff" `Quick test_pool_min_items_cutoff;
          Alcotest.test_case "both ~parallel:false" `Quick test_pool_both_sequential;
        ] );
    ]
