(* Tests for Rc_timing: Elmore delay arithmetic and the sequential-
   adjacency STA (hand-computable netlists plus structural invariants on
   generated circuits). *)

open Rc_netlist
open Netlist

let tech = Rc_tech.Tech.default
let check_float eps = Alcotest.(check (float eps))
let p = Rc_geom.Point.make

let test_elmore_formula () =
  (* ½rcl² + rlC, r = 0.1, c = 0.12, in ps, over a Manhattan length *)
  let wire_delay ~length ~load = Rc_timing.Elmore.point_delay tech (p 0.0 0.0) (p length 0.0) ~load in
  let d = wire_delay ~length:1000.0 ~load:25.0 in
  check_float 1e-9 "analytic" ((0.5 *. 0.1 *. 0.12 *. 1e6 /. 1000.0) +. (0.1 *. 1000.0 *. 25.0 /. 1000.0)) d;
  check_float 1e-9 "zero length" 0.0 (wire_delay ~length:0.0 ~load:25.0);
  Alcotest.(check bool) "monotone in length" true
    (wire_delay ~length:200.0 ~load:10.0 < wire_delay ~length:400.0 ~load:10.0)

let test_sink_load () =
  let kinds = [| Logic; Flipflop; Input_pad; Output_pad |] in
  let nets = [| { driver = 2; sinks = [| 0; 1; 3 |] } |] in
  let nl =
    Netlist.make ~name:"l" ~kinds ~nets
      ~pad_positions:[ (2, p 0.0 0.0); (3, p 1.0 0.0) ]
  in
  check_float 1e-9 "logic load" tech.Rc_tech.Tech.c_gate (Rc_timing.Elmore.sink_load tech nl 0);
  check_float 1e-9 "ff load" tech.Rc_tech.Tech.c_ff (Rc_timing.Elmore.sink_load tech nl 1)

(* The STA's pairs as (launching cell, capturing cell, D_max, D_min), in
   the result's order. *)
let cell_pairs nl (sta : Rc_timing.Sta.t) =
  let ffs = Netlist.flip_flops nl in
  List.init (Array.length sta.src) (fun p ->
      (ffs.(sta.src.(p)), ffs.(sta.dst.(p)), sta.d_max.(p), sta.d_min.(p)))

(* A hand-built two-FF netlist:
     FF0 -> G (logic) -> FF1, all at known positions. *)
let two_ff_netlist () =
  let kinds = [| Flipflop; Logic; Flipflop |] in
  let nets = [| { driver = 0; sinks = [| 1 |] }; { driver = 1; sinks = [| 2 |] } |] in
  let nl = Netlist.make ~name:"2ff" ~kinds ~nets ~pad_positions:[] in
  let positions = [| p 0.0 0.0; p 100.0 0.0; p 200.0 0.0 |] in
  (nl, positions)

let test_sta_two_ffs () =
  let nl, positions = two_ff_netlist () in
  let sta = Rc_timing.Sta.analyze tech nl ~positions in
  Alcotest.(check int) "one pair" 1 (List.length (cell_pairs nl sta));
  match cell_pairs nl sta with
  | [ (src, dst, d_max, d_min) ] ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check int) "dst" 2 dst;
      (* wire 0->1 (load gate) + gate delay of 1 + wire 1->2 (load ff);
         the gate factor is within [0.9, 1.1] *)
      let w01 = Rc_timing.Elmore.point_delay tech positions.(0) positions.(1) ~load:tech.Rc_tech.Tech.c_gate in
      let w12 = Rc_timing.Elmore.point_delay tech positions.(1) positions.(2) ~load:tech.Rc_tech.Tech.c_ff in
      Alcotest.(check bool) "d_max bounds" true
        (d_max >= w01 +. w12 +. (0.9 *. tech.Rc_tech.Tech.gate_delay)
        && d_max <= w01 +. w12 +. (1.1 *. tech.Rc_tech.Tech.gate_delay));
      Alcotest.(check bool) "d_min uses fast gate" true (d_min < d_max);
      Alcotest.(check bool) "d_min bounds" true
        (d_min >= w01 +. w12 +. (0.9 *. tech.Rc_tech.Tech.gate_delay_min))
  | _ -> Alcotest.fail "expected exactly one pair"

let test_sta_direct_ff_to_ff () =
  let kinds = [| Flipflop; Flipflop |] in
  let nets = [| { driver = 0; sinks = [| 1 |] } |] in
  let nl = Netlist.make ~name:"d" ~kinds ~nets ~pad_positions:[] in
  let positions = [| p 0.0 0.0; p 50.0 0.0 |] in
  let sta = Rc_timing.Sta.analyze tech nl ~positions in
  match cell_pairs nl sta with
  | [ (_, _, d_max, d_min) ] ->
      let w = Rc_timing.Elmore.point_delay tech positions.(0) positions.(1) ~load:tech.Rc_tech.Tech.c_ff in
      check_float 1e-9 "wire-only d_max" w d_max;
      check_float 1e-9 "wire-only d_min" w d_min
  | _ -> Alcotest.fail "expected one pair"

let test_sta_reconvergence () =
  (* FF0 fans out to two logic paths of different depth that reconverge
     at FF3: d_max takes the deep path, d_min the shallow one *)
  let kinds = [| Flipflop; Logic; Logic; Flipflop; Logic |] in
  (* FF0 -> G1 -> FF3 ; FF0 -> G2 -> G4 -> FF3 *)
  let nets =
    [|
      { driver = 0; sinks = [| 1; 2 |] };
      { driver = 1; sinks = [| 3 |] };
      { driver = 2; sinks = [| 4 |] };
      { driver = 4; sinks = [| 3 |] };
    |]
  in
  let nl = Netlist.make ~name:"r" ~kinds ~nets ~pad_positions:[] in
  let positions = [| p 0.0 0.0; p 10.0 0.0; p 10.0 10.0; p 20.0 0.0; p 20.0 10.0 |] in
  let sta = Rc_timing.Sta.analyze tech nl ~positions in
  match cell_pairs nl sta with
  | [ (_, _, d_max, d_min) ] ->
      (* two gates on the deep path vs one on the shallow *)
      Alcotest.(check bool) "spread reflects depths" true
        (d_max -. d_min > tech.Rc_tech.Tech.gate_delay_min *. 0.5)
  | l -> Alcotest.failf "expected one pair, got %d" (List.length l)

let test_sta_stops_at_ffs () =
  (* FF0 -> FF1 -> FF2 chain of direct connections: pairs are (0,1) and
     (1,2) but NOT (0,2) — propagation must stop at flip-flops *)
  let kinds = [| Flipflop; Flipflop; Flipflop |] in
  let nets = [| { driver = 0; sinks = [| 1 |] }; { driver = 1; sinks = [| 2 |] } |] in
  let nl = Netlist.make ~name:"s" ~kinds ~nets ~pad_positions:[] in
  let positions = [| p 0.0 0.0; p 10.0 0.0; p 20.0 0.0 |] in
  let sta = Rc_timing.Sta.analyze tech nl ~positions in
  let pairs =
    List.map (fun (src, dst, _, _) -> (src, dst)) (cell_pairs nl sta) |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "only direct pairs" [ (0, 1); (1, 2) ] pairs

let prop_sta_dmin_le_dmax =
  QCheck.Test.make ~name:"STA: d_min <= d_max on generated circuits" ~count:20
    QCheck.small_int (fun seed ->
      let cfg =
        {
          Rc_netlist.Generator.default_config with
          Rc_netlist.Generator.seed = seed + 3;
          n_logic = 60;
          n_ffs = 10;
          n_nets = 68;
          n_inputs = 4;
          n_outputs = 4;
        }
      in
      let nl = Rc_netlist.Generator.generate cfg in
      let placed =
        Rc_place.Qplace.initial nl ~chip:cfg.Rc_netlist.Generator.chip
      in
      let sta = Rc_timing.Sta.analyze tech nl ~positions:placed.Rc_place.Qplace.positions in
      List.for_all (fun (_, _, d_max, d_min) -> d_min <= d_max +. 1e-9) (cell_pairs nl sta))

(* --- oracles: the flat result against the hash-table reference --- *)

let bits = Array.map Int64.bits_of_float

(* a generated circuit with [n_ffs] flip-flops and cells at random
   points of its die.  Odd seeds have no output pads, so the generator
   hangs drivers left without a sink on flip-flops: those flip-flops
   have several fanin nets, and a cone can reach them more than once *)
let random_circuit ~seed ~n_ffs =
  let n_logic = 5 * n_ffs in
  let cfg =
    {
      Rc_netlist.Generator.default_config with
      Rc_netlist.Generator.seed;
      n_logic;
      n_ffs;
      n_nets = n_ffs + 8 + (n_logic - (n_logic / 10));
      n_inputs = 8;
      n_outputs = (if seed land 1 = 0 then 8 else 0);
      clusters = max 2 (n_ffs / 8);
    }
  in
  let nl = Rc_netlist.Generator.generate cfg in
  let rng = Rc_util.Rng.create (seed + 101) in
  let side = 2200.0 in
  let positions =
    Array.init (Netlist.n_cells nl) (fun _ ->
        p (Float.round (Rc_util.Rng.float_in rng 0.0 side)) (Rc_util.Rng.float_in rng 0.0 side))
  in
  (nl, positions)

let sorted_bits l =
  List.map (fun (s, d, dmax, dmin) -> (s, d, Int64.bits_of_float dmax, Int64.bits_of_float dmin)) l
  |> List.sort compare

let prop_sta_matches_reference =
  QCheck.Test.make ~name:"flat STA pairs equal the hash-table reference" ~count:30
    QCheck.(pair small_int (int_range 2 90))
    (fun (seed, n_ffs) ->
      let nl, positions = random_circuit ~seed:(seed + 7) ~n_ffs in
      let sta = Rc_timing.Sta.analyze tech nl ~positions in
      let want = Reference_kernels.sta_pairs tech nl ~positions in
      let src = sta.Rc_timing.Sta.src in
      let in_ff_order = ref true in
      for q = 1 to Array.length src - 1 do
        if src.(q) < src.(q - 1) then in_ff_order := false
      done;
      let critical = List.fold_left (fun acc (_, _, dmax, _) -> Float.max acc dmax) 0.0 want in
      sorted_bits (cell_pairs nl sta) = sorted_bits want
      && !in_ff_order
      && Int64.bits_of_float sta.Rc_timing.Sta.critical = Int64.bits_of_float critical)

let flat_bits (sta : Rc_timing.Sta.t) =
  (sta.src, sta.dst, bits sta.d_max, bits sta.d_min, Int64.bits_of_float sta.critical)

let prop_sta_jobs_and_sessions =
  QCheck.Test.make ~name:"cold, incremental and jobs 1/2/4 STA arrays are identical" ~count:6
    QCheck.small_int (fun seed ->
      (* enough flip-flops that the cones fan out to the pool *)
      let nl, p0 = random_circuit ~seed:(seed + 11) ~n_ffs:(96 + (seed mod 40)) in
      let rng = Rc_util.Rng.create seed in
      let p1 =
        Array.map
          (fun (q : Rc_geom.Point.t) ->
            if Rc_util.Rng.int rng 4 = 0 then p (q.x +. Rc_util.Rng.float_in rng (-50.0) 50.0) q.y
            else q)
          p0
      in
      let run jobs =
        let before = Rc_par.Pool.jobs () in
        Rc_par.Pool.set_jobs jobs;
        Fun.protect ~finally:(fun () -> Rc_par.Pool.set_jobs before) (fun () ->
            let sess = Rc_timing.Sta.make_session tech nl in
            let warm0 = Rc_timing.Sta.analyze_batch sess ~positions:p0 in
            let warm1 = Rc_timing.Sta.analyze_batch sess ~positions:p1 in
            let replay = Rc_timing.Sta.analyze_batch sess ~positions:p1 in
            [
              flat_bits (Rc_timing.Sta.analyze tech nl ~positions:p0);
              flat_bits warm0;
              flat_bits (Rc_timing.Sta.analyze tech nl ~positions:p1);
              flat_bits warm1;
              flat_bits replay;
            ])
      in
      let r1 = run 1 in
      let same_at_p0 = List.nth r1 0 = List.nth r1 1 in
      let same_at_p1 = List.for_all (( = ) (List.nth r1 2)) [ List.nth r1 3; List.nth r1 4 ] in
      same_at_p0 && same_at_p1 && run 2 = r1 && run 4 = r1)

(* --- van Ginneken buffering --- *)

let test_buffering_short_wire_unbuffered () =
  let r = Reference_kernels.Buffering.optimize tech (Reference_kernels.Buffering.two_pin ~length:200.0 ~load:6.0) in
  Alcotest.(check int) "no buffers on short wire" 0 r.Reference_kernels.Buffering.n_buffers;
  Alcotest.(check (float 1e-6)) "same as unbuffered"
    r.Reference_kernels.Buffering.unbuffered_delay r.Reference_kernels.Buffering.buffered_delay

let test_buffering_long_wire () =
  let r = Reference_kernels.Buffering.optimize tech (Reference_kernels.Buffering.two_pin ~length:8000.0 ~load:6.0) in
  Alcotest.(check bool)
    (Printf.sprintf "%d buffers cut delay %.0f -> %.0f" r.Reference_kernels.Buffering.n_buffers
       r.Reference_kernels.Buffering.unbuffered_delay r.Reference_kernels.Buffering.buffered_delay)
    true
    (r.Reference_kernels.Buffering.n_buffers >= 2
    && r.Reference_kernels.Buffering.buffered_delay < 0.75 *. r.Reference_kernels.Buffering.unbuffered_delay)

let test_buffering_linearizes_delay () =
  (* unbuffered Elmore grows quadratically; buffered roughly linearly *)
  let delay len =
    (Reference_kernels.Buffering.optimize tech (Reference_kernels.Buffering.two_pin ~length:len ~load:6.0))
      .Reference_kernels.Buffering.buffered_delay
  in
  let d4 = delay 4000.0 and d8 = delay 8000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "8mm %.0f < 2.5x 4mm %.0f" d8 d4)
    true (d8 < 2.5 *. d4)

let test_buffering_branch () =
  (* asymmetric branch: the long arm dominates; buffering helps it *)
  let tree =
    Reference_kernels.Buffering.(
      Branch
        ( Wire { length = 6000.0; child = Sink { cap = 25.0; tag = 0 } },
          Wire { length = 100.0; child = Sink { cap = 6.0; tag = 1 } } ))
  in
  let r = Reference_kernels.Buffering.optimize tech tree in
  Alcotest.(check bool) "buffers on the long arm" true (r.Reference_kernels.Buffering.n_buffers >= 1);
  Alcotest.(check bool) "improves" true
    (r.Reference_kernels.Buffering.buffered_delay < r.Reference_kernels.Buffering.unbuffered_delay)

let test_buffering_matches_interval_estimate () =
  (* the [31]-style length/interval estimate in rc_power should be the
     right order of magnitude vs the exact DP *)
  let len = 10000.0 in
  let exact =
    (Reference_kernels.Buffering.optimize tech (Reference_kernels.Buffering.two_pin ~length:len ~load:6.0))
      .Reference_kernels.Buffering.n_buffers
  in
  let estimate = Rc_power.Power.estimated_buffers tech ~length:len in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d within 3x of exact %d" estimate exact)
    true
    (estimate <= 3 * max exact 1 && exact <= 3 * max estimate 1)

let test_buffering_invalid () =
  Alcotest.check_raises "bad segment"
    (Invalid_argument "Buffering.optimize: non-positive segment") (fun () ->
      ignore
        (Reference_kernels.Buffering.optimize ~segment:0.0 tech
           (Reference_kernels.Buffering.two_pin ~length:100.0 ~load:1.0)))

let prop_buffering_never_hurts =
  QCheck.Test.make ~name:"buffering never increases the optimal delay" ~count:50
    QCheck.(pair (float_range 50.0 6000.0) (float_range 1.0 50.0))
    (fun (len, load) ->
      let r = Reference_kernels.Buffering.optimize tech (Reference_kernels.Buffering.two_pin ~length:len ~load) in
      r.Reference_kernels.Buffering.buffered_delay
      <= r.Reference_kernels.Buffering.unbuffered_delay +. 1e-9)

let () =
  Alcotest.run "rc_timing"
    [
      ( "elmore",
        [
          Alcotest.test_case "formula" `Quick test_elmore_formula;
          Alcotest.test_case "sink loads" `Quick test_sink_load;
        ] );
      ( "sta",
        [
          Alcotest.test_case "two flip-flops" `Quick test_sta_two_ffs;
          Alcotest.test_case "direct ff-to-ff" `Quick test_sta_direct_ff_to_ff;
          Alcotest.test_case "reconvergence" `Quick test_sta_reconvergence;
          Alcotest.test_case "stops at flip-flops" `Quick test_sta_stops_at_ffs;
          QCheck_alcotest.to_alcotest prop_sta_dmin_le_dmax;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest prop_sta_matches_reference;
          QCheck_alcotest.to_alcotest prop_sta_jobs_and_sessions;
        ] );
      ( "buffering",
        [
          Alcotest.test_case "short wire unbuffered" `Quick test_buffering_short_wire_unbuffered;
          Alcotest.test_case "long wire buffered" `Quick test_buffering_long_wire;
          Alcotest.test_case "linearizes delay" `Quick test_buffering_linearizes_delay;
          Alcotest.test_case "branch" `Quick test_buffering_branch;
          Alcotest.test_case "matches interval estimate" `Quick
            test_buffering_matches_interval_estimate;
          Alcotest.test_case "invalid" `Quick test_buffering_invalid;
          QCheck_alcotest.to_alcotest prop_buffering_never_hurts;
        ] );
    ]
