(* Tests for Rc_assign: both assignment formulations on a shared small
   state — optimality of network flow under capacities, load accounting,
   LP-relaxation bounds, greedy-rounding feasibility, and the B&B
   baseline's agreement on small instances. *)

open Rc_geom
open Rc_rotary
open Rc_assign

let tech = Rc_tech.Tech.default

let mk_state ?(n_ffs = 24) ?(grid = 2) seed =
  let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1200.0 ~ymax:1200.0 in
  let arr = Ring_array.create ~chip ~grid () in
  let rng = Rc_util.Rng.create seed in
  let ff_positions =
    Array.init n_ffs (fun _ ->
        Point.make (Rc_util.Rng.float rng 1200.0) (Rc_util.Rng.float rng 1200.0))
  in
  let targets = Array.init n_ffs (fun _ -> Rc_util.Rng.float rng 1000.0) in
  (arr, ff_positions, targets)

let test_netflow_assigns_all () =
  let arr, ff_positions, targets = mk_state 1 in
  let a = Assign.by_netflow tech arr ~ff_positions ~targets in
  Alcotest.(check int) "all assigned" 24 (Array.length a.Assign.ring_of_ff);
  Array.iter
    (fun r -> Alcotest.(check bool) "valid ring" true (r >= 0 && r < Ring_array.n_rings arr))
    a.Assign.ring_of_ff;
  (* taps realize the targets *)
  Array.iteri
    (fun i tap ->
      let ring = Ring_array.ring arr a.Assign.ring_of_ff.(i) in
      let got =
        Ring.delay_at ring ~arc:tap.Tapping.arc ~conductor:tap.Tapping.conductor
        +. Tapping.stub_delay tech tap.Tapping.wirelength
      in
      let d = Float.rem (Float.abs (got -. targets.(i))) 1000.0 in
      Alcotest.(check bool) "target realized" true (Float.min d (1000.0 -. d) < 0.01))
    a.Assign.taps

let test_netflow_cost_consistency () =
  let arr, ff_positions, targets = mk_state 2 in
  let a = Assign.by_netflow tech arr ~ff_positions ~targets in
  let s = Array.fold_left (fun acc t -> acc +. t.Tapping.wirelength) 0.0 a.Assign.taps in
  Alcotest.(check (float 1e-6)) "total = sum of taps" s a.Assign.total_cost;
  (* loads add up: each ff contributes wire cap + ff cap to its ring *)
  let expect = Array.make (Ring_array.n_rings arr) 0.0 in
  Array.iteri
    (fun i tap ->
      expect.(a.Assign.ring_of_ff.(i)) <-
        expect.(a.Assign.ring_of_ff.(i))
        +. (tech.Rc_tech.Tech.c_wire *. tap.Tapping.wirelength)
        +. tech.Rc_tech.Tech.c_ff)
    a.Assign.taps;
  Array.iteri
    (fun j l -> Alcotest.(check (float 1e-6)) (Printf.sprintf "load ring %d" j) expect.(j) l)
    a.Assign.loads;
  Alcotest.(check (float 1e-9)) "max load" (Array.fold_left Float.max 0.0 expect) a.Assign.max_load

let test_netflow_capacity_respected () =
  let arr, ff_positions, targets = mk_state 3 in
  let caps = Array.make (Ring_array.n_rings arr) 6 in
  let a = Assign.by_netflow ~capacities:caps tech arr ~ff_positions ~targets in
  let used = Array.make (Ring_array.n_rings arr) 0 in
  Array.iter (fun r -> used.(r) <- used.(r) + 1) a.Assign.ring_of_ff;
  Array.iteri
    (fun j u -> Alcotest.(check bool) (Printf.sprintf "ring %d within cap" j) true (u <= caps.(j)))
    used

let test_netflow_infeasible_capacity () =
  let arr, ff_positions, targets = mk_state 4 in
  let caps = Array.make (Ring_array.n_rings arr) 1 in
  Alcotest.check_raises "total capacity too small"
    (Invalid_argument "Assign.by_netflow: total capacity below flip-flop count") (fun () ->
      ignore (Assign.by_netflow ~capacities:caps tech arr ~ff_positions ~targets))

let test_netflow_optimal_vs_exhaustive () =
  (* tiny instance where brute force is possible: 5 ffs, 4 rings, cap 2 *)
  let arr, ff_positions, targets = mk_state ~n_ffs:5 5 in
  let caps = Array.make 4 2 in
  let a = Assign.by_netflow ~candidates:4 ~capacities:caps tech arr ~ff_positions ~targets in
  (* brute force over 4^5 assignments *)
  let cost i j =
    (Tapping.solve tech (Ring_array.ring arr j) ~ff:ff_positions.(i) ~target:targets.(i))
      .Tapping.wirelength
  in
  let best = ref infinity in
  let used = Array.make 4 0 in
  let rec go i acc =
    if acc >= !best then ()
    else if i = 5 then best := acc
    else
      for j = 0 to 3 do
        if used.(j) < 2 then begin
          used.(j) <- used.(j) + 1;
          go (i + 1) (acc +. cost i j);
          used.(j) <- used.(j) - 1
        end
      done
  in
  go 0 0.0;
  Alcotest.(check (float 0.01)) "netflow is optimal" !best a.Assign.total_cost

(* A candidate count below 1 is rejected up front.  Before, 0 on a ring
   grid up to 4x4 never returned (the widen retry doubled 0 to 0), on
   larger grids it raised a bare index error, and a negative count died
   in Bigarray.create. *)
let test_candidates_below_one () =
  let arr, ff_positions, targets = mk_state ~n_ffs:10 ~grid:4 9 in
  List.iter
    (fun k ->
      Alcotest.check_raises (Printf.sprintf "by_netflow ~candidates:%d" k)
        (Invalid_argument "Assign.by_netflow: candidates must be at least 1") (fun () ->
          ignore (Assign.by_netflow ~candidates:k tech arr ~ff_positions ~targets));
      Alcotest.check_raises (Printf.sprintf "by_ilp ~candidates:%d" k)
        (Invalid_argument "Assign.by_ilp: candidates must be at least 1") (fun () ->
          ignore (Assign.by_ilp ~candidates:k tech arr ~ff_positions ~targets));
      Alcotest.check_raises (Printf.sprintf "by_branch_bound ~candidates:%d" k)
        (Invalid_argument "Assign.by_branch_bound: candidates must be at least 1") (fun () ->
          ignore (Assign.by_branch_bound ~candidates:k tech arr ~ff_positions ~targets)))
    [ 0; -3 ];
  (* one candidate still works: the widen retry grows it *)
  let a = Assign.by_netflow ~candidates:1 tech arr ~ff_positions ~targets in
  Alcotest.(check bool) "candidates:1 assigns all" true
    (Array.for_all (fun r -> r >= 0) a.Assign.ring_of_ff)

let test_ilp_beats_netflow_on_max_load () =
  let arr, ff_positions, targets = mk_state 6 in
  let nf = Assign.by_netflow tech arr ~ff_positions ~targets in
  let il, stats = Assign.by_ilp tech arr ~ff_positions ~targets in
  Alcotest.(check bool) "lp optimum lower-bounds rounded" true
    (stats.Assign.lp_optimum <= stats.Assign.ilp_objective +. 1e-6);
  Alcotest.(check bool) "IG >= 1" true (stats.Assign.integrality_gap >= 1.0 -. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "ILP max load %.1f <= netflow %.1f" il.Assign.max_load nf.Assign.max_load)
    true
    (il.Assign.max_load <= nf.Assign.max_load +. 1e-6)

let test_ilp_assigns_every_ff () =
  let arr, ff_positions, targets = mk_state 7 in
  let il, _ = Assign.by_ilp tech arr ~ff_positions ~targets in
  Array.iter
    (fun r -> Alcotest.(check bool) "assigned" true (r >= 0))
    il.Assign.ring_of_ff

let test_bb_agrees_on_small () =
  let arr, ff_positions, targets = mk_state ~n_ffs:6 8 in
  let il, stats = Assign.by_ilp ~candidates:4 tech arr ~ff_positions ~targets in
  let limits = { Rc_ilp.Branch_bound.max_nodes = 50_000; max_seconds = 20.0 } in
  let bb, bstats = Assign.by_branch_bound ~candidates:4 ~limits tech arr ~ff_positions ~targets in
  match bb with
  | None -> Alcotest.fail "B&B should solve a 6-ff instance"
  | Some b ->
      Alcotest.(check bool) "bb proved optimal" true bstats.Assign.proved_optimal;
      Alcotest.(check bool)
        (Printf.sprintf "exact %.2f <= greedy %.2f" b.Assign.max_load il.Assign.max_load)
        true
        (b.Assign.max_load <= il.Assign.max_load +. 1e-6);
      Alcotest.(check bool) "exact >= LP bound" true
        (b.Assign.max_load >= stats.Assign.lp_optimum -. 1e-6)

(* --- flat candidate pool ------------------------------------------- *)

(* The SoA pool must hold exactly the taps the seed's per-FF loops
   produced: one segment per flip-flop in [Ring_array.rings_near] order,
   each slot reconstructing the full [Tapping.tap] bit-for-bit. *)
let test_pool_matches_reference () =
  let arr, ff_positions, targets = mk_state 9 in
  let candidates = 4 in
  let pl = Assign.candidate_taps_batch tech arr ~ff_positions ~targets ~candidates in
  Array.iteri
    (fun i p ->
      let rings = Ring_array.rings_near arr p candidates in
      Alcotest.(check int)
        (Printf.sprintf "ff %d candidate count" i)
        (List.length rings) (Assign.pool_count pl i);
      List.iteri
        (fun q rj ->
          let expect = Tapping.solve tech (Ring_array.ring arr rj) ~ff:p ~target:targets.(i) in
          Alcotest.(check int)
            (Printf.sprintf "ff %d slot %d ring id" i q)
            rj (Assign.pool_ring pl i q);
          Alcotest.(check bool)
            (Printf.sprintf "ff %d slot %d tap bit-identical" i q)
            true
            (Assign.pool_tap pl i q = expect))
        rings)
    ff_positions

(* more flip-flops than rings-near candidates, and a stride larger than
   the ring count: per-FF counts must clip to what rings_near returns *)
let test_pool_clips_to_available_rings () =
  let arr, ff_positions, targets = mk_state ~n_ffs:5 10 in
  let candidates = Ring_array.n_rings arr + 3 in
  let pl = Assign.candidate_taps_batch tech arr ~ff_positions ~targets ~candidates in
  Array.iteri
    (fun i p ->
      let expect = List.length (Ring_array.rings_near arr p candidates) in
      Alcotest.(check int) (Printf.sprintf "ff %d clipped count" i) expect
        (Assign.pool_count pl i);
      Alcotest.(check bool)
        (Printf.sprintf "ff %d count within ring total" i)
        true
        (Assign.pool_count pl i <= Ring_array.n_rings arr))
    ff_positions

let prop_greedy_ig_reasonable =
  QCheck.Test.make ~name:"greedy rounding IG stays modest on random instances" ~count:15
    QCheck.small_int (fun seed ->
      let arr, ff_positions, targets = mk_state ~n_ffs:16 (seed + 40) in
      let _, stats = Assign.by_ilp tech arr ~ff_positions ~targets in
      stats.Assign.integrality_gap >= 1.0 -. 1e-9 && stats.Assign.integrality_gap < 4.0)

let () =
  Alcotest.run "rc_assign"
    [
      ( "netflow",
        [
          Alcotest.test_case "assigns all" `Quick test_netflow_assigns_all;
          Alcotest.test_case "cost/load consistency" `Quick test_netflow_cost_consistency;
          Alcotest.test_case "capacities respected" `Quick test_netflow_capacity_respected;
          Alcotest.test_case "infeasible capacity" `Quick test_netflow_infeasible_capacity;
          Alcotest.test_case "optimal vs exhaustive" `Quick test_netflow_optimal_vs_exhaustive;
          Alcotest.test_case "candidates below one rejected" `Quick test_candidates_below_one;
        ] );
      ( "candidate pool",
        [
          Alcotest.test_case "matches per-FF reference loops" `Quick
            test_pool_matches_reference;
          Alcotest.test_case "clips to available rings" `Quick
            test_pool_clips_to_available_rings;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "beats netflow on max load" `Quick test_ilp_beats_netflow_on_max_load;
          Alcotest.test_case "assigns every ff" `Quick test_ilp_assigns_every_ff;
          Alcotest.test_case "B&B agrees on small" `Slow test_bb_agrees_on_small;
          QCheck_alcotest.to_alcotest prop_greedy_ig_reasonable;
        ] );
    ]
