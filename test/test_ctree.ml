(* Tests for Rc_ctree: the zero-skew clock tree used as the conventional
   baseline. Central invariant: every sink sees the same Elmore delay
   from the root (that is what "exact zero skew" means). *)

open Rc_geom

let tech = Rc_tech.Tech.default

let build_pts pts = Rc_ctree.Ctree.build tech ~sinks:(List.map (fun p -> (p, 25.0)) pts)

let test_single_sink () =
  let t = build_pts [ Point.make 10.0 20.0 ] in
  let s = Rc_ctree.Ctree.stats t in
  Alcotest.(check int) "one sink" 1 s.Rc_ctree.Ctree.n_sinks;
  Alcotest.(check (float 1e-9)) "no wire" 0.0 s.Rc_ctree.Ctree.total_wirelength;
  Alcotest.(check bool) "root at sink" true
    (Point.equal (Rc_ctree.Ctree.root_position t) (Point.make 10.0 20.0))

let test_two_symmetric_sinks () =
  let t = build_pts [ Point.make 0.0 0.0; Point.make 100.0 0.0 ] in
  let s = Rc_ctree.Ctree.stats t in
  Alcotest.(check (float 1e-6)) "zero skew" 0.0 s.Rc_ctree.Ctree.max_skew;
  (* equal loads: tap in the middle *)
  let root = Rc_ctree.Ctree.root_position t in
  Alcotest.(check (float 1e-6)) "midpoint tap" 50.0 root.Point.x;
  Alcotest.(check (float 1e-6)) "wire spans the pair" 100.0 s.Rc_ctree.Ctree.total_wirelength

let test_asymmetric_loads_shift_tap () =
  (* heavier load on the left sink pulls the zero-skew tap toward it *)
  let t =
    Rc_ctree.Ctree.build tech
      ~sinks:[ (Point.make 0.0 0.0, 200.0); (Point.make 100.0 0.0, 10.0) ]
  in
  let root = Rc_ctree.Ctree.root_position t in
  Alcotest.(check bool)
    (Printf.sprintf "tap x %.1f < 50" root.Point.x)
    true (root.Point.x < 50.0);
  let s = Rc_ctree.Ctree.stats t in
  Alcotest.(check bool) "still zero skew" true (s.Rc_ctree.Ctree.max_skew < 1e-6)

let test_zero_skew_many_sinks () =
  let rng = Rc_util.Rng.create 7 in
  let pts =
    List.init 64 (fun _ ->
        Point.make (Rc_util.Rng.float rng 2000.0) (Rc_util.Rng.float rng 2000.0))
  in
  let t = build_pts pts in
  let s = Rc_ctree.Ctree.stats t in
  Alcotest.(check int) "sinks" 64 s.Rc_ctree.Ctree.n_sinks;
  Alcotest.(check bool)
    (Printf.sprintf "max skew %.4f ps ~ 0" s.Rc_ctree.Ctree.max_skew)
    true
    (s.Rc_ctree.Ctree.max_skew < 0.01);
  Alcotest.(check bool) "avg <= max path" true
    (s.Rc_ctree.Ctree.avg_path_length <= s.Rc_ctree.Ctree.max_path_length +. 1e-9);
  Alcotest.(check bool) "positive wire" true (s.Rc_ctree.Ctree.total_wirelength > 0.0)

let test_coincident_sinks () =
  let t = build_pts [ Point.make 5.0 5.0; Point.make 5.0 5.0; Point.make 5.0 5.0 ] in
  let s = Rc_ctree.Ctree.stats t in
  Alcotest.(check bool) "zero skew" true (s.Rc_ctree.Ctree.max_skew < 1e-9)

let test_empty_rejected () =
  Alcotest.check_raises "no sinks" (Invalid_argument "Ctree.build: no sinks") (fun () ->
      ignore (Rc_ctree.Ctree.build tech ~sinks:[]))

let test_path_lengths_consistent () =
  let rng = Rc_util.Rng.create 11 in
  let pts =
    List.init 17 (fun _ ->
        Point.make (Rc_util.Rng.float rng 800.0) (Rc_util.Rng.float rng 800.0))
  in
  let s = Rc_ctree.Ctree.stats (build_pts pts) in
  (* the mean path is at most the longest, and every root->sink path is
     bounded by the total wire *)
  Alcotest.(check bool) "avg > 0" true (s.Rc_ctree.Ctree.avg_path_length > 0.0);
  Alcotest.(check bool) "avg <= max" true
    (s.Rc_ctree.Ctree.avg_path_length <= s.Rc_ctree.Ctree.max_path_length +. 1e-9);
  Alcotest.(check bool) "max <= total" true
    (s.Rc_ctree.Ctree.max_path_length <= s.Rc_ctree.Ctree.total_wirelength +. 1e-6)

let prop_zero_skew_random =
  QCheck.Test.make ~name:"zero skew holds on random sink sets" ~count:40
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 13) + 5) in
      let pts =
        List.init n (fun _ ->
            ( Point.make (Rc_util.Rng.float rng 1500.0) (Rc_util.Rng.float rng 1500.0),
              Rc_util.Rng.float_in rng 5.0 60.0 ))
      in
      let t = Rc_ctree.Ctree.build tech ~sinks:pts in
      let s = Rc_ctree.Ctree.stats t in
      s.Rc_ctree.Ctree.max_skew < 0.01)

let () =
  Alcotest.run "rc_ctree"
    [
      ( "zero-skew tree",
        [
          Alcotest.test_case "single sink" `Quick test_single_sink;
          Alcotest.test_case "symmetric pair" `Quick test_two_symmetric_sinks;
          Alcotest.test_case "asymmetric loads" `Quick test_asymmetric_loads_shift_tap;
          Alcotest.test_case "64 random sinks" `Quick test_zero_skew_many_sinks;
          Alcotest.test_case "coincident sinks" `Quick test_coincident_sinks;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "path-length consistency" `Quick test_path_lengths_consistent;
          QCheck_alcotest.to_alcotest prop_zero_skew_random;
        ] );
    ]
