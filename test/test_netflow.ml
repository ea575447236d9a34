(* Tests for Rc_netflow: min-cost max-flow correctness and the
   flip-flop-to-ring assignment wrapper, cross-checked against brute
   force on small instances. *)

open Rc_netflow

let check_float = Alcotest.(check (float 1e-9))

let test_single_path () =
  let n = Mcmf.create 3 in
  let a01 = Mcmf.add_arc n ~src:0 ~dst:1 ~capacity:5 ~cost:2.0 in
  let a12 = Mcmf.add_arc n ~src:1 ~dst:2 ~capacity:3 ~cost:1.0 in
  let r = Mcmf.solve n ~source:0 ~sink:2 in
  Alcotest.(check int) "flow limited by bottleneck" 3 r.Mcmf.flow;
  check_float "cost" 9.0 r.Mcmf.cost;
  Alcotest.(check int) "flow on first arc" 3 (Mcmf.flow_on n a01);
  Alcotest.(check int) "flow on second arc" 3 (Mcmf.flow_on n a12)

let test_prefers_cheap_path () =
  (* two parallel 0->1 paths: direct cost 10, via 2 cost 2+2=4 *)
  let n = Mcmf.create 3 in
  let direct = Mcmf.add_arc n ~src:0 ~dst:1 ~capacity:10 ~cost:10.0 in
  ignore (Mcmf.add_arc n ~src:0 ~dst:2 ~capacity:4 ~cost:2.0);
  ignore (Mcmf.add_arc n ~src:2 ~dst:1 ~capacity:4 ~cost:2.0);
  let r = Mcmf.solve n ~amount:4 ~source:0 ~sink:1 in
  Alcotest.(check int) "all flow shipped" 4 r.Mcmf.flow;
  check_float "cheap path only" 16.0 r.Mcmf.cost;
  Alcotest.(check int) "expensive path unused" 0 (Mcmf.flow_on n direct)

let test_splits_when_saturated () =
  let n = Mcmf.create 3 in
  ignore (Mcmf.add_arc n ~src:0 ~dst:1 ~capacity:2 ~cost:1.0);
  ignore (Mcmf.add_arc n ~src:0 ~dst:2 ~capacity:10 ~cost:3.0);
  ignore (Mcmf.add_arc n ~src:2 ~dst:1 ~capacity:10 ~cost:0.0);
  let r = Mcmf.solve n ~amount:5 ~source:0 ~sink:1 in
  Alcotest.(check int) "flow" 5 r.Mcmf.flow;
  check_float "2 cheap + 3 expensive" 11.0 r.Mcmf.cost

let test_residual_rerouting () =
  (* classic case where a later augmentation must push flow back *)
  let n = Mcmf.create 4 in
  ignore (Mcmf.add_arc n ~src:0 ~dst:1 ~capacity:1 ~cost:1.0);
  ignore (Mcmf.add_arc n ~src:0 ~dst:2 ~capacity:1 ~cost:2.0);
  ignore (Mcmf.add_arc n ~src:1 ~dst:2 ~capacity:1 ~cost:0.0);
  ignore (Mcmf.add_arc n ~src:1 ~dst:3 ~capacity:1 ~cost:5.0);
  ignore (Mcmf.add_arc n ~src:2 ~dst:3 ~capacity:1 ~cost:1.0);
  let r = Mcmf.solve n ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow" 2 r.Mcmf.flow;
  (* optimal: 0-1-3 (6) + 0-2-3 (3) = 9, vs 0-1-2-3 (2) + 0-1?... best is 9 *)
  check_float "min cost" 9.0 r.Mcmf.cost

let test_negative_cost_arc () =
  let n = Mcmf.create 3 in
  ignore (Mcmf.add_arc n ~src:0 ~dst:1 ~capacity:1 ~cost:(-2.0));
  ignore (Mcmf.add_arc n ~src:1 ~dst:2 ~capacity:1 ~cost:1.0);
  let r = Mcmf.solve n ~source:0 ~sink:2 in
  Alcotest.(check int) "flow" 1 r.Mcmf.flow;
  check_float "negative cost handled" (-1.0) r.Mcmf.cost

let test_disconnected () =
  let n = Mcmf.create 2 in
  let r = Mcmf.solve n ~source:0 ~sink:1 in
  Alcotest.(check int) "no flow" 0 r.Mcmf.flow

let test_assignment_simple () =
  (* 3 items, 2 bins with capacity 2 and 1 *)
  let cands =
    [
      { Assignment.item = 0; bin = 0; cost = 1.0 };
      { Assignment.item = 0; bin = 1; cost = 5.0 };
      { Assignment.item = 1; bin = 0; cost = 2.0 };
      { Assignment.item = 1; bin = 1; cost = 1.0 };
      { Assignment.item = 2; bin = 0; cost = 3.0 };
      { Assignment.item = 2; bin = 1; cost = 4.0 };
    ]
  in
  let r = Assignment.solve ~n_items:3 ~n_bins:2 ~capacities:[| 2; 1 |] cands in
  Alcotest.(check int) "all assigned" 3 r.Assignment.assigned;
  (* optimum: 0->0 (1), 1->1 (1), 2->0 (3) = 5 *)
  check_float "optimal cost" 5.0 r.Assignment.total_cost;
  Alcotest.(check (array int)) "assignment" [| 0; 1; 0 |] r.Assignment.assignment

let test_assignment_capacity_binds () =
  (* both items prefer bin 0 but it only holds one *)
  let cands =
    [
      { Assignment.item = 0; bin = 0; cost = 1.0 };
      { Assignment.item = 0; bin = 1; cost = 10.0 };
      { Assignment.item = 1; bin = 0; cost = 2.0 };
      { Assignment.item = 1; bin = 1; cost = 3.0 };
    ]
  in
  let r = Assignment.solve ~n_items:2 ~n_bins:2 ~capacities:[| 1; 1 |] cands in
  check_float "forced split" 4.0 r.Assignment.total_cost;
  Alcotest.(check (array int)) "assignment" [| 0; 1 |] r.Assignment.assignment

let test_assignment_unassignable () =
  let r =
    Assignment.solve ~n_items:2 ~n_bins:1 ~capacities:[| 1 |]
      [ { Assignment.item = 0; bin = 0; cost = 1.0 }; { Assignment.item = 1; bin = 0; cost = 2.0 } ]
  in
  Alcotest.(check int) "only capacity-many assigned" 1 r.Assignment.assigned;
  Alcotest.(check bool) "one item unassigned" true
    (Array.exists (fun b -> b = -1) r.Assignment.assignment)

(* brute force all assignments for small instances *)
let brute_force n_items n_bins caps cost =
  let best = ref infinity in
  let used = Array.make n_bins 0 in
  let rec go i acc =
    if acc >= !best then ()
    else if i = n_items then best := acc
    else
      for j = 0 to n_bins - 1 do
        if used.(j) < caps.(j) && cost.(i).(j) < infinity then begin
          used.(j) <- used.(j) + 1;
          go (i + 1) (acc +. cost.(i).(j));
          used.(j) <- used.(j) - 1
        end
      done
  in
  go 0 0.0;
  !best

let prop_assignment_matches_brute_force =
  QCheck.Test.make ~name:"network-flow assignment is optimal (vs brute force)" ~count:80
    QCheck.(triple small_int (int_range 1 6) (int_range 1 4))
    (fun (seed, n_items, n_bins) ->
      let rng = Rc_util.Rng.create ((seed * 31) + 7) in
      let caps =
        Array.init n_bins (fun _ -> Rc_util.Rng.int_in rng 1 3)
      in
      if Array.fold_left ( + ) 0 caps < n_items then QCheck.assume_fail ()
      else begin
        let cost =
          Array.init n_items (fun _ ->
              Array.init n_bins (fun _ -> float_of_int (Rc_util.Rng.int_in rng 0 20)))
        in
        let cands =
          List.concat
            (List.init n_items (fun i ->
                 List.init n_bins (fun j -> { Assignment.item = i; bin = j; cost = cost.(i).(j) })))
        in
        let r = Assignment.solve ~n_items ~n_bins ~capacities:caps cands in
        let expected = brute_force n_items n_bins caps cost in
        r.Assignment.assigned = n_items && Float.abs (r.Assignment.total_cost -. expected) < 1e-6
      end)

(* A/B identity: the bucket-Dijkstra core must ship the same flow at the
   bit-identical cost as the binary-heap reference core
   ([Reference_kernels.mcmf]) on random bipartite assignment networks,
   both built from one arc list. Costs are continuous (uniform floats),
   so shortest paths are unique with probability 1 and both cores choose
   the same arcs — the comparison is [=] on the cost, not a tolerance. *)
let matches_reference ~n arcs ~source ~sink =
  let net = Mcmf.create n in
  List.iter
    (fun (src, dst, capacity, cost) -> ignore (Mcmf.add_arc net ~src ~dst ~capacity ~cost))
    arcs;
  let r = Mcmf.solve net ~source ~sink in
  let flow, cost = Reference_kernels.mcmf ~n arcs ~source ~sink in
  r.Mcmf.flow = flow && r.Mcmf.cost = cost

let random_bipartite seed =
  let rng = Rc_util.Rng.create ((seed * 53) + 11) in
  let n_items = Rc_util.Rng.int_in rng 2 14 in
  let n_bins = Rc_util.Rng.int_in rng 2 6 in
  let caps = Array.init n_bins (fun _ -> Rc_util.Rng.int_in rng 1 4) in
  let costs =
    Array.init n_items (fun _ ->
        Array.init n_bins (fun _ -> Rc_util.Rng.float rng 100.0))
  in
  (* source 0, sink 1, items from 2, then bins *)
  let item i = 2 + i and bin j = 2 + n_items + j in
  let arcs =
    List.init n_items (fun i -> (0, item i, 1, 0.0))
    @ List.init n_bins (fun j -> (bin j, 1, caps.(j), 0.0))
    @ List.concat
        (List.init n_items (fun i ->
             List.init n_bins (fun j -> (item i, bin j, 1, costs.(i).(j)))))
  in
  (2 + n_items + n_bins, arcs)

let prop_bucket_dijkstra_matches_reference =
  QCheck.Test.make
    ~name:"bucket-Dijkstra core bit-identical to reference core" ~count:120
    QCheck.small_int (fun seed ->
      let n, arcs = random_bipartite seed in
      matches_reference ~n arcs ~source:0 ~sink:1)

let prop_bucket_dijkstra_matches_reference_general =
  (* general layered networks with parallel arcs and wider capacities *)
  QCheck.Test.make
    ~name:"cores agree on layered multigraphs (flow and exact cost)"
    ~count:120 QCheck.small_int (fun seed ->
      let rng = Rc_util.Rng.create ((seed * 97) + 3) in
      let n_mid = Rc_util.Rng.int_in rng 2 10 in
      let n = 2 + (2 * n_mid) in
      let arcs = ref [] in
      let add src dst cap cost = arcs := (src, dst, cap, cost) :: !arcs in
      for i = 0 to n_mid - 1 do
        add 0 (2 + i) (Rc_util.Rng.int_in rng 1 5) (Rc_util.Rng.float rng 10.0);
        add (2 + n_mid + i) 1 (Rc_util.Rng.int_in rng 1 5)
          (Rc_util.Rng.float rng 10.0)
      done;
      let n_cross = Rc_util.Rng.int_in rng n_mid (3 * n_mid) in
      for _ = 1 to n_cross do
        let i = Rc_util.Rng.int_in rng 0 (n_mid - 1)
        and j = Rc_util.Rng.int_in rng 0 (n_mid - 1) in
        add (2 + i) (2 + n_mid + j) (Rc_util.Rng.int_in rng 1 3)
          (Rc_util.Rng.float rng 50.0)
      done;
      matches_reference ~n (List.rev !arcs) ~source:0 ~sink:1)

(* Oracle for the lazy-source core: on random unit-supply bipartite
   networks it must replay the generic core exactly — per-arc flow, the
   cost's bits, every final potential's bits and the Dijkstra scan count.
   The draws favour ties, which is where a different settle order would
   show: small integers, zeros, and values 1e-13 apart (inside the
   core's 1e-12 slack).  Bins may have zero capacity, total capacity may
   fall short of the items, items may have no arcs, an (item, bin) pair
   may repeat, the source arcs go in a shuffled order, and some draws
   start from non-zero (even infeasible) bin and sink potentials or from
   -0.0, which splits the items' shared potential and hands the solve
   to the generic core mid-way. *)
let random_unit_supply seed =
  let rng = Rc_util.Rng.create ((seed * 131) + 17) in
  let n_items = Rc_util.Rng.int_in rng 1 24 in
  let n_bins = Rc_util.Rng.int_in rng 1 6 in
  let caps = Array.init n_bins (fun _ -> Rc_util.Rng.int_in rng 0 4) in
  let cost =
    match Rc_util.Rng.int rng 4 with
    | 0 -> fun () -> float_of_int (Rc_util.Rng.int rng 5)
    | 1 -> fun () -> if Reference_kernels.coin rng then 0.0 else float_of_int (Rc_util.Rng.int rng 3)
    | 2 -> fun () -> 7.0 +. (float_of_int (Rc_util.Rng.int rng 4) *. 1e-13)
    | _ -> fun () -> Rc_util.Rng.float rng 50.0
  in
  let cands =
    List.concat
      (List.init n_items (fun i ->
           List.init (Rc_util.Rng.int rng 5) (fun _ ->
               (i, Rc_util.Rng.int rng n_bins, cost ()))))
  in
  let order = Array.init n_items Fun.id in
  Rc_util.Rng.shuffle rng order;
  let n = n_items + n_bins + 2 in
  let source = 0 and sink = n - 1 in
  let pot0 =
    match Rc_util.Rng.int rng 8 with
    | 0 -> Array.make n (-0.0)
    | 1 ->
        let k = Rc_util.Rng.float_in rng (-3.0) 3.0 in
        Array.init n (fun v ->
            if v <= n_items then k else Rc_util.Rng.float_in rng (-5.0) 5.0)
    | _ -> Array.make n 0.0
  in
  let build () =
    let net = Mcmf.create n in
    Array.iter
      (fun i -> ignore (Mcmf.add_arc net ~src:source ~dst:(1 + i) ~capacity:1 ~cost:0.0))
      order;
    Array.iteri
      (fun j cap ->
        ignore (Mcmf.add_arc net ~src:(1 + n_items + j) ~dst:sink ~capacity:cap ~cost:0.0))
      caps;
    let arcs =
      List.map
        (fun (i, j, c) ->
          Mcmf.add_arc net ~src:(1 + i) ~dst:(1 + n_items + j) ~capacity:1 ~cost:c)
        cands
    in
    (net, arcs)
  in
  (build, pot0, source, sink, n_items)

let scans = Rc_obs.Metrics.counter "netflow.mcmf.dijkstra_scans"
let augmentations = Rc_obs.Metrics.counter "netflow.mcmf.augmentations"

let prop_unit_supply_matches_generic =
  QCheck.Test.make ~name:"lazy-source core bit-identical to the generic core" ~count:3000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Rc_obs.Metrics.set_enabled true;
      let build, pot0, source, sink, n_items = random_unit_supply seed in
      let run solve =
        let net, arcs = build () in
        let pot = Array.copy pot0 in
        let s0 = Rc_obs.Metrics.count scans and a0 = Rc_obs.Metrics.count augmentations in
        let r = solve net pot in
        ( r.Mcmf.flow,
          Int64.bits_of_float r.Mcmf.cost,
          List.map (Mcmf.flow_on net) arcs,
          Array.map Int64.bits_of_float pot,
          Rc_obs.Metrics.count scans - s0,
          Rc_obs.Metrics.count augmentations - a0 )
      in
      let amount = if seed mod 5 = 0 then max 1 (n_items / 2) else n_items in
      let generic =
        run (fun net potentials -> Mcmf.solve_warm ~amount net ~potentials ~source ~sink)
      in
      let lazy_ =
        run (fun net potentials -> Mcmf.solve_unit_supply ~amount net ~potentials ~source ~sink)
      in
      generic = lazy_)

(* The core settles the no-op items without a scan, yet counts them *)
let test_unit_supply_skips () =
  Rc_obs.Metrics.set_enabled true;
  let skips = Rc_obs.Metrics.counter "netflow.mcmf.sweep_skips" in
  (* 40 items all wanting bin 0 (capacity 1) at rising cost, bin 1 costly *)
  let n_items = 40 in
  let cands =
    List.concat
      (List.init n_items (fun i ->
           [
             { Assignment.item = i; bin = 0; cost = 1.0 +. float_of_int i };
             { Assignment.item = i; bin = 1; cost = 100.0 };
           ]))
  in
  let k0 = Rc_obs.Metrics.count skips in
  let r = Assignment.solve ~n_items ~n_bins:2 ~capacities:[| 1; n_items |] cands in
  Alcotest.(check int) "all assigned" n_items r.Assignment.assigned;
  Alcotest.(check bool) "items settled without a scan" true
    (Rc_obs.Metrics.count skips - k0 > 0)

let () =
  Alcotest.run "rc_netflow"
    [
      ( "mcmf",
        [
          Alcotest.test_case "single path" `Quick test_single_path;
          Alcotest.test_case "prefers cheap path" `Quick test_prefers_cheap_path;
          Alcotest.test_case "splits when saturated" `Quick test_splits_when_saturated;
          Alcotest.test_case "residual rerouting" `Quick test_residual_rerouting;
          Alcotest.test_case "negative costs" `Quick test_negative_cost_arc;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          QCheck_alcotest.to_alcotest prop_bucket_dijkstra_matches_reference;
          QCheck_alcotest.to_alcotest prop_bucket_dijkstra_matches_reference_general;
          QCheck_alcotest.to_alcotest prop_unit_supply_matches_generic;
          Alcotest.test_case "lazy-source core skips no-op items" `Quick test_unit_supply_skips;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "simple optimum" `Quick test_assignment_simple;
          Alcotest.test_case "capacity binds" `Quick test_assignment_capacity_binds;
          Alcotest.test_case "unassignable overflow" `Quick test_assignment_unassignable;
          QCheck_alcotest.to_alcotest prop_assignment_matches_brute_force;
        ] );
    ]
