(* Tests for Rc_graph: heap ordering, Bellman-Ford (SPFA) with negative
   cycles, held to the reference Dijkstra on non-negative graphs,
   difference-constraint feasibility, topological order. *)

open Rc_graph

let check_float = Alcotest.(check (float 1e-9))

let test_heap_ordering () =
  let h = Heap.create () in
  let keys = [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5; 6.0 ] in
  List.iteri (fun i k -> Heap.push h k i) keys;
  Alcotest.(check int) "size" 7 (Heap.size h);
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (k, _) ->
        out := k :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0))) "sorted ascending"
    [ 6.0; 5.0; 4.0; 3.0; 2.0; 1.0; 0.5 ] !out;
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_peek_clear () =
  let h = Heap.create () in
  Heap.push h 2.0 "b";
  Heap.push h 1.0 "a";
  Alcotest.(check int) "size" 2 (Heap.size h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range (-1000.) 1000.))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k ()) keys;
      let rec drain acc =
        match Heap.pop_min h with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let diamond () =
  (* 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 1 -> 3 (6), 2 -> 3 (3) *)
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1 1.0;
  Digraph.add_edge g 0 2 4.0;
  Digraph.add_edge g 1 2 2.0;
  Digraph.add_edge g 1 3 6.0;
  Digraph.add_edge g 2 3 3.0;
  g

let test_digraph_basic () =
  let g = diamond () in
  Alcotest.(check int) "vertices" 4 (Digraph.n_vertices g);
  Alcotest.(check int) "edges" 5 (Digraph.n_edges g);
  Alcotest.(check int) "out degree of 0" 2 (List.length (Digraph.out_edges g 0));
  Alcotest.(check (array int)) "in degrees" [| 0; 1; 2; 2 |] (Digraph.in_degree g);
  Alcotest.check_raises "bad vertex" (Invalid_argument "Digraph.add_edge: vertex out of range")
    (fun () -> Digraph.add_edge g 0 7 1.0)

let spfa g ~sources = Shortest_path.spfa (Digraph.freeze g) ~sources

let test_dijkstra () =
  let g = diamond () in
  let r = Reference_kernels.dijkstra g ~source:0 in
  check_float "d0" 0.0 r.dist.(0);
  check_float "d1" 1.0 r.dist.(1);
  check_float "d2" 3.0 r.dist.(2);
  check_float "d3" 6.0 r.dist.(3);
  Alcotest.(check (option (list int))) "path to 3" (Some [ 0; 1; 2; 3 ])
    (Reference_kernels.path_to r 3)

let test_dijkstra_unreachable () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1 1.0;
  let r = Reference_kernels.dijkstra g ~source:0 in
  Alcotest.(check bool) "unreachable is inf" true (r.dist.(2) = infinity);
  Alcotest.(check (option (list int))) "no path" None (Reference_kernels.path_to r 2)

let test_dijkstra_negative_rejected () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 0 1 (-1.0);
  Alcotest.check_raises "negative edge"
    (Invalid_argument "dijkstra: negative weight") (fun () ->
      ignore (Reference_kernels.dijkstra g ~source:0))

let test_bellman_ford_negative_weights () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1 4.0;
  Digraph.add_edge g 0 2 2.0;
  Digraph.add_edge g 2 1 (-3.0);
  Digraph.add_edge g 1 3 1.0;
  match spfa g ~sources:[ 0 ] with
  | Either.Left r ->
      check_float "d1 via negative edge" (-1.0) r.dist.(1);
      check_float "d3" 0.0 r.dist.(3)
  | Either.Right _ -> Alcotest.fail "no negative cycle expected"

let test_bellman_ford_negative_cycle () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1 1.0;
  Digraph.add_edge g 1 2 (-2.0);
  Digraph.add_edge g 2 1 1.0;
  match spfa g ~sources:[ 0 ] with
  | Either.Left _ -> Alcotest.fail "expected negative cycle"
  | Either.Right cycle ->
      Alcotest.(check bool) "cycle contains 1 and 2" true
        (List.mem 1 cycle && List.mem 2 cycle)

let test_feasible_potentials () =
  (* p1 - p0 <= 2, p2 - p1 <= 3, p0 - p2 <= -4 : feasible since 2+3-4 >= 0 *)
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1 2.0;
  Digraph.add_edge g 1 2 3.0;
  Digraph.add_edge g 2 0 (-4.0);
  (match Shortest_path.feasible_potentials g with
  | Some p ->
      Alcotest.(check bool) "c1" true (p.(1) <= p.(0) +. 2.0 +. 1e-9);
      Alcotest.(check bool) "c2" true (p.(2) <= p.(1) +. 3.0 +. 1e-9);
      Alcotest.(check bool) "c3" true (p.(0) <= p.(2) -. 4.0 +. 1e-9)
  | None -> Alcotest.fail "system is feasible");
  (* tighten the cycle to make total negative: infeasible *)
  let g2 = Digraph.create 3 in
  Digraph.add_edge g2 0 1 2.0;
  Digraph.add_edge g2 1 2 3.0;
  Digraph.add_edge g2 2 0 (-6.0);
  Alcotest.(check bool) "infeasible detected" true
    (Shortest_path.feasible_potentials g2 = None)

let test_topological_order () =
  let g = diamond () in
  match Dag.topological_order g with
  | None -> Alcotest.fail "diamond is acyclic"
  | Some order ->
      let posn = Array.make 4 0 in
      Array.iteri (fun i v -> posn.(v) <- i) order;
      for v = 0 to 3 do
        List.iter
          (fun (e : Digraph.edge) ->
            Alcotest.(check bool) "edge respects order" true (posn.(e.src) < posn.(e.dst)))
          (Digraph.out_edges g v)
      done

let test_cycle_detection () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 0 1 1.0;
  Digraph.add_edge g 1 0 1.0;
  Alcotest.(check bool) "no topo order" true (Dag.topological_order g = None)

let prop_dijkstra_matches_bellman =
  QCheck.Test.make ~name:"dijkstra agrees with bellman-ford on random graphs" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 0 40)
                              (triple (int_bound 9) (int_bound 9) (float_range 0.0 10.0))))
    (fun (_, edges) ->
      let g = Digraph.create 10 in
      List.iter (fun (u, v, w) -> if u <> v then Digraph.add_edge g u v w) edges;
      let d = Reference_kernels.dijkstra g ~source:0 in
      match spfa g ~sources:[ 0 ] with
      | Either.Right _ -> false
      | Either.Left b ->
          Array.for_all2
            (fun x y -> (x = infinity && y = infinity) || Float.abs (x -. y) < 1e-6)
            d.dist b.dist)

(* The array SPFA against the list-walking reference: the same verdict,
   the same dist/pred bits or the same cycle.  Even seeds are random
   difference-constraint graphs whose negative share grows with the
   seed, with self-loops and parallel edges; odd seeds are skew
   constraint graphs at a slack from well below to past the two-cycle
   bound.  Either kind comes out feasible or infeasible, so both
   verdicts (and both cycle certificates) are exercised. *)
let prop_spfa_matches_reference =
  QCheck.Test.make ~name:"array SPFA is bit-identical to the list-walking reference"
    ~count:400 QCheck.small_int (fun seed ->
      let rng = Rc_util.Rng.create ((seed * 613) + 7) in
      let n = 1 + Rc_util.Rng.int rng 40 in
      let g =
        if seed land 1 = 0 then begin
          let g = Digraph.create n in
          let neg = float_of_int (seed mod 7) in
          for _ = 1 to Rc_util.Rng.int rng (4 * n) do
            Digraph.add_edge g (Rc_util.Rng.int rng n) (Rc_util.Rng.int rng n)
              (Rc_util.Rng.float_in rng (-.neg) 10.0)
          done;
          g
        end
        else begin
          let pairs =
            List.init (Rc_util.Rng.int rng (3 * n)) (fun _ ->
                let d_min = Rc_util.Rng.float_in rng 20.0 300.0 in
                let d_max = d_min +. Rc_util.Rng.float_in rng 0.0 500.0 in
                let j = Rc_util.Rng.int rng n in
                let i = Rc_util.Rng.int rng n in
                (i, j, d_max, d_min))
            |> Array.of_list
          in
          let pr =
            Rc_skew.Skew_problem.make ~n
              ~src:(Array.map (fun (i, _, _, _) -> i) pairs)
              ~dst:(Array.map (fun (_, j, _, _) -> j) pairs)
              ~d_max:(Array.map (fun (_, _, d_max, _) -> d_max) pairs)
              ~d_min:(Array.map (fun (_, _, _, d_min) -> d_min) pairs)
              ~period:1000.0 ~t_setup:40.0 ~t_hold:15.0
          in
          Rc_skew.Skew_problem.constraint_graph pr ~slack:(Rc_util.Rng.float_in rng (-100.0) 300.0)
        end
      in
      let sources =
        if Reference_kernels.coin rng then List.init n Fun.id
        else List.init (1 + Rc_util.Rng.int rng 3) (fun _ -> Rc_util.Rng.int rng n)
      in
      let bits = Array.map Int64.bits_of_float in
      match (spfa g ~sources, Reference_kernels.bellman_ford g ~sources) with
      | Either.Left r, Either.Left (dist, pred) ->
          bits r.Shortest_path.dist = bits dist && r.Shortest_path.pred = pred
      | Either.Right c, Either.Right c_ref -> c = c_ref
      | _ -> false)

let () =
  Alcotest.run "rc_graph"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek/clear" `Quick test_heap_peek_clear;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ("digraph", [ Alcotest.test_case "basic" `Quick test_digraph_basic ]);
      ( "shortest_path",
        [
          Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra;
          Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "dijkstra rejects negatives" `Quick test_dijkstra_negative_rejected;
          Alcotest.test_case "bellman-ford negative weights" `Quick
            test_bellman_ford_negative_weights;
          Alcotest.test_case "bellman-ford negative cycle" `Quick
            test_bellman_ford_negative_cycle;
          Alcotest.test_case "difference constraints" `Quick test_feasible_potentials;
          QCheck_alcotest.to_alcotest prop_dijkstra_matches_bellman;
          QCheck_alcotest.to_alcotest prop_spfa_matches_reference;
        ] );
      ( "dag",
        [
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        ] );
    ]
