(* Tests for Rc_rotary: ring phase geometry, ring arrays, and the
   Section III tapping-point solver (all four cases of Eq. 1). The
   central property: the clock delay at the returned tapping point plus
   the stub's Elmore delay equals the requested target modulo the clock
   period. *)

open Rc_rotary
open Rc_geom

let tech = Rc_tech.Tech.default
let check_float eps = Alcotest.(check (float eps))

let mk_ring ?(id = 0) ?(clockwise = true) ?(t_ref = 0.0) ?(period = 1000.0) ?(side = 1000.0) () =
  Ring.make ~id ~rect:(Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:side ~ymax:side) ~clockwise ~t_ref
    ~period

let test_ring_geometry () =
  let r = mk_ring () in
  check_float 1e-9 "perimeter" 4000.0 (Ring.perimeter r);
  check_float 1e-12 "rho = T / 2P" 0.125 (Ring.rho r);
  let segs = Ring.segments r in
  Alcotest.(check int) "four segments" 4 (Array.length segs);
  (* clockwise from top-left: top, right, bottom, left *)
  let s0, a0 = segs.(0) in
  Alcotest.(check bool) "starts at top-left" true
    (Point.equal s0.Segment.a (Point.make 0.0 1000.0));
  check_float 1e-9 "first arc start" 0.0 a0;
  let _, a3 = segs.(3) in
  check_float 1e-9 "last arc start" 3000.0 a3

let test_ring_invalid () =
  Alcotest.check_raises "degenerate" (Invalid_argument "Ring.make: degenerate rectangle")
    (fun () ->
      ignore
        (Ring.make ~id:0
           ~rect:(Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:0.0 ~ymax:1.0)
           ~clockwise:true ~t_ref:0.0 ~period:1000.0))

let test_ring_delay_profile () =
  let r = mk_ring () in
  check_float 1e-9 "origin outer" 0.0 (Ring.delay_at r ~arc:0.0 ~conductor:Ring.Outer);
  check_float 1e-9 "origin inner is +T/2" 500.0 (Ring.delay_at r ~arc:0.0 ~conductor:Ring.Inner);
  check_float 1e-9 "quarter way" 125.0 (Ring.delay_at r ~arc:1000.0 ~conductor:Ring.Outer);
  (* arc positions are modular: a full perimeter is the same point *)
  check_float 1e-9 "arc wraps to origin" 0.0 (Ring.delay_at r ~arc:4000.0 ~conductor:Ring.Outer);
  check_float 1e-9 "inner at wrapped origin" 500.0
    (Ring.delay_at r ~arc:4000.0 ~conductor:Ring.Inner)

let test_ring_point_arc_roundtrip () =
  let r = mk_ring () in
  List.iter
    (fun arc ->
      let p = Ring.point_at r ~arc in
      check_float 1e-6 (Printf.sprintf "arc %g roundtrip" arc) arc (Ring.arc_of_point r p))
    [ 0.0; 137.0; 999.0; 1500.0; 2250.0; 3999.0 ]

let test_ring_closest_distance () =
  let r = mk_ring () in
  (* center of the 1000-square is 500 from every edge *)
  check_float 1e-9 "center" 500.0 (Ring.closest_boundary_distance r (Point.make 500.0 500.0));
  check_float 1e-9 "on edge" 0.0 (Ring.closest_boundary_distance r (Point.make 0.0 300.0));
  check_float 1e-9 "outside" 70.0 (Ring.closest_boundary_distance r (Point.make 1050.0 1020.0))

let test_ring_frequency () =
  let r = mk_ring () in
  let f0 = Ring.oscillation_frequency_ghz tech r ~load_cap:0.0 in
  let f1 = Ring.oscillation_frequency_ghz tech r ~load_cap:500.0 in
  Alcotest.(check bool) "loading slows the ring" true (f1 < f0);
  Alcotest.(check bool) "order of magnitude sane (0.1-100 GHz)" true (f0 > 0.1 && f0 < 100.0)

let test_array_tiling () =
  let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:4000.0 ~ymax:4000.0 in
  let arr = Ring_array.create ~chip ~grid:4 () in
  Alcotest.(check int) "16 rings" 16 (Ring_array.n_rings arr);
  let r0 = Ring_array.ring arr 0 and r5 = Ring_array.ring arr 5 in
  check_float 1e-9 "tile width" 1000.0 (Rect.width r0.Ring.rect);
  Alcotest.(check bool) "checkerboard directions" true
    (r0.Ring.clockwise <> (Ring_array.ring arr 1).Ring.clockwise);
  Alcotest.(check bool) "diagonal same direction" true (r0.Ring.clockwise = r5.Ring.clockwise);
  (* equal-phase reference: same t_ref everywhere *)
  Alcotest.(check bool) "phase locked" true
    (Array.for_all (fun r -> r.Ring.t_ref = 0.0) (Ring_array.rings arr))

let test_array_containing () =
  let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:4000.0 ~ymax:4000.0 in
  let arr = Ring_array.create ~chip ~grid:4 () in
  Alcotest.(check int) "first tile" 0 (Ring_array.containing_ring arr (Point.make 10.0 10.0));
  Alcotest.(check int) "last tile" 15
    (Ring_array.containing_ring arr (Point.make 3990.0 3990.0));
  Alcotest.(check int) "clamped outside" 0
    (Ring_array.containing_ring arr (Point.make (-50.0) (-50.0)));
  Alcotest.(check int) "row-major index" 5
    (Ring_array.containing_ring arr (Point.make 1500.0 1500.0))

let test_array_rings_near () =
  let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:4000.0 ~ymax:4000.0 in
  let arr = Ring_array.create ~chip ~grid:4 () in
  let near = Ring_array.rings_near arr (Point.make 500.0 500.0) 3 in
  Alcotest.(check int) "k rings" 3 (List.length near);
  Alcotest.(check int) "nearest is containing tile" 0 (List.hd near)

let test_array_capacities () =
  let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:4000.0 ~ymax:4000.0 in
  let arr = Ring_array.create ~chip ~grid:4 () in
  let caps = Ring_array.default_capacities arr ~n_ffs:100 ~slack:1.5 in
  Alcotest.(check int) "length" 16 (Array.length caps);
  Alcotest.(check int) "ceil(1.5*100/16)" 10 caps.(0);
  Alcotest.(check bool) "capacity covers all FFs" true
    (Array.fold_left ( + ) 0 caps >= 100)

(* --- tapping ---------------------------------------------------------- *)

let realized_delay ring tap =
  let on_ring = Ring.delay_at ring ~arc:tap.Tapping.arc ~conductor:tap.Tapping.conductor in
  on_ring +. Tapping.stub_delay tech tap.Tapping.wirelength

let modular_diff period a b =
  let d = Float.rem (Float.abs (a -. b)) period in
  Float.min d (period -. d)

let check_tap_matches_target ring ff target =
  let tap = Tapping.solve tech ring ~ff ~target in
  let got = realized_delay ring tap in
  let diff = modular_diff ring.Ring.period got target in
  Alcotest.(check bool)
    (Printf.sprintf "delay matches target: got %g want %g (mod %g), diff %g" got target
       ring.Ring.period diff)
    true (diff < 0.01);
  tap

let test_tap_exact_phase_point () =
  (* FF sitting right on the ring edge, target = the phase at that spot:
     zero-cost tap *)
  let ring = mk_ring () in
  let ff = Point.make 400.0 1000.0 in
  (* top edge, clockwise from top-left: arc = 400 *)
  let target = Ring.delay_at ring ~arc:400.0 ~conductor:Ring.Outer in
  let tap = check_tap_matches_target ring ff target in
  check_float 1e-3 "zero stub" 0.0 tap.Tapping.wirelength;
  Alcotest.(check bool) "not snaked" true (not tap.Tapping.snaked)

let test_tap_complementary_phase () =
  (* target exactly the complement: inner conductor gives it for free *)
  let ring = mk_ring () in
  let ff = Point.make 400.0 1000.0 in
  let target = Ring.delay_at ring ~arc:400.0 ~conductor:Ring.Inner in
  let tap = check_tap_matches_target ring ff target in
  check_float 1e-3 "zero stub via complement" 0.0 tap.Tapping.wirelength;
  Alcotest.(check bool) "used inner conductor" true (tap.Tapping.conductor = Ring.Inner)

let test_tap_interior_ff () =
  let ring = mk_ring () in
  let ff = Point.make 500.0 700.0 in
  let tap = check_tap_matches_target ring ff 120.0 in
  Alcotest.(check bool) "stub at least the boundary distance" true
    (tap.Tapping.wirelength >= Ring.closest_boundary_distance ring ff -. 1e-6)

let test_tap_case1_period_reduction () =
  (* a tiny target below the reachable curve forces a +kT shift *)
  let ring = mk_ring ~t_ref:0.0 () in
  let ff = Point.make 900.0 500.0 in
  let target = Ring.delay_at ring ~arc:1500.0 ~conductor:Ring.Outer in
  (* make a target that is 2 periods below an achievable value *)
  let tap = check_tap_matches_target ring ff (target -. 2000.0) in
  Alcotest.(check bool) "shifted by whole periods" true (tap.Tapping.periods_shifted >= 1)

let test_tap_case4_snaking () =
  (* Fig. 2's single-segment setting: restricted to the top segment's
     outer conductor, a target above the whole curve (t_f4 in the paper)
     forces tapping at the segment end with a detoured (snaked) stub. *)
  let ring = mk_ring () in
  let ff = Point.make 500.0 1000.0 in
  (* top segment outer covers delays [0, 125] + small stub terms; pick a
     target far above that but below +T *)
  let target = 300.0 in
  let tap =
    Tapping.solve_on_segment tech ring ~segment:0 ~conductor:Ring.Outer ~ff ~target
  in
  Alcotest.(check bool) "snaked" true tap.Tapping.snaked;
  Alcotest.(check bool) "tapped at segment end" true
    (Point.equal tap.Tapping.point (Point.make 1000.0 1000.0));
  Alcotest.(check bool) "stub longer than direct distance" true
    (tap.Tapping.wirelength > Point.manhattan ff tap.Tapping.point +. 1.0);
  (* the detoured stub still realizes the target *)
  let got =
    Ring.delay_at ring ~arc:tap.Tapping.arc ~conductor:Ring.Outer
    +. Tapping.stub_delay tech tap.Tapping.wirelength
  in
  check_float 0.01 "delay realized" target got

let test_tap_single_segment_two_roots () =
  (* Case 2: a moderately small target cuts both parabola branches; the
     solver must return the smaller-wirelength root. *)
  let ring = mk_ring () in
  let ff = Point.make 500.0 900.0 in
  (* on the top segment the curve minimum is near x=500 (t ~ 62.5 + stub);
     a slightly larger target has two roots around it *)
  let tap =
    Tapping.solve_on_segment tech ring ~segment:0 ~conductor:Ring.Outer ~ff ~target:80.0
  in
  Alcotest.(check bool) "not snaked" true (not tap.Tapping.snaked);
  let got =
    Ring.delay_at ring ~arc:tap.Tapping.arc ~conductor:Ring.Outer
    +. Tapping.stub_delay tech tap.Tapping.wirelength
  in
  check_float 0.01 "delay realized" 80.0 got;
  (* loose sanity bound: the cheaper root's stub should be close to the
     boundary distance (100) rather than hundreds of µm *)
  Alcotest.(check bool) "picked the short root" true (tap.Tapping.wirelength < 250.0)

let test_tap_cost_monotone_distance () =
  (* moving the FF farther from the ring cannot reduce the cost for a
     constant easy target *)
  let ring = mk_ring () in
  let target = 300.0 in
  let cost ff = (Tapping.solve tech ring ~ff ~target).Tapping.wirelength in
  let near = cost (Point.make 1010.0 500.0) in
  let far = cost (Point.make 1500.0 500.0) in
  Alcotest.(check bool) "farther is costlier" true (far > near)

let test_curve_shape () =
  (* Fig. 2: t_f(x) along the top segment is two joined parabolas with a
     kink at the flip-flop projection — piecewise monotone slopes and a
     minimum at one of the expected spots *)
  let ring = mk_ring () in
  let ff = Point.make 600.0 1200.0 in
  let pts = Tapping.curve tech ring ~segment:0 ~ff ~samples:101 in
  Alcotest.(check int) "samples" 101 (List.length pts);
  let arr = Array.of_list pts in
  (* curve must be continuous: no jumps bigger than a small bound *)
  let ok = ref true in
  for i = 1 to Array.length arr - 1 do
    let _, t1 = arr.(i - 1) and _, t2 = arr.(i) in
    if Float.abs (t2 -. t1) > 10.0 then ok := false
  done;
  Alcotest.(check bool) "continuous" true !ok;
  (* values increase toward the far end once past the kink *)
  let _, t_last = arr.(100) and _, t_mid = arr.(60) in
  Alcotest.(check bool) "rising tail" true (t_last > t_mid)

let prop_tap_always_matches =
  QCheck.Test.make ~name:"tapping delay always hits the target (mod T)" ~count:300
    QCheck.(
      quad (int_range 0 10000) (float_range 0.0 2000.0) (float_range 0.0 2000.0)
        (float_range (-500.0) 1500.0))
    (fun (seed, fx, fy, target) ->
      let rng = Rc_util.Rng.create seed in
      let side = Rc_util.Rng.float_in rng 300.0 1500.0 in
      let x0 = Rc_util.Rng.float_in rng (-200.0) 200.0 in
      let clockwise = Reference_kernels.coin rng in
      let t_ref = Rc_util.Rng.float_in rng 0.0 999.0 in
      let ring =
        Ring.make ~id:0
          ~rect:(Rect.make ~xmin:x0 ~ymin:x0 ~xmax:(x0 +. side) ~ymax:(x0 +. side))
          ~clockwise ~t_ref ~period:1000.0
      in
      let ff = Point.make fx fy in
      let tap = Tapping.solve tech ring ~ff ~target in
      let got =
        Ring.delay_at ring ~arc:tap.Tapping.arc ~conductor:tap.Tapping.conductor
        +. Tapping.stub_delay tech tap.Tapping.wirelength
      in
      modular_diff 1000.0 got target < 0.01
      && tap.Tapping.wirelength >= Ring.closest_boundary_distance ring ff -. 1e-6)

let prop_tap_on_ring_boundary =
  QCheck.Test.make ~name:"tapping point lies on the ring edge" ~count:200
    QCheck.(triple (int_range 0 10000) (float_range 0.0 1200.0) (float_range 0.0 999.0))
    (fun (seed, coord, target) ->
      let rng = Rc_util.Rng.create (seed + 5) in
      let ring = mk_ring ~clockwise:(Reference_kernels.coin rng) () in
      let ff = Point.make coord (Rc_util.Rng.float_in rng 0.0 1200.0) in
      let tap = Tapping.solve tech ring ~ff ~target in
      Ring.closest_boundary_distance ring tap.Tapping.point < 1e-6)

(* --- the walker against the list-based solver --- *)

let tap_bits (t : Tapping.tap) =
  ( t.Tapping.ring,
    Int64.bits_of_float t.Tapping.point.Point.x,
    Int64.bits_of_float t.Tapping.point.Point.y,
    Int64.bits_of_float t.Tapping.arc,
    t.Tapping.conductor = Ring.Inner,
    Int64.bits_of_float t.Tapping.wirelength,
    t.Tapping.snaked,
    t.Tapping.periods_shifted )

(* random rings (any aspect ratio, direction, phase and period),
   flip-flops inside and around them, targets across three periods and
   far-end loads; both conductors or the outer one alone.  Every other
   case is snapped to coarse grids (rings and flip-flops on 50 um,
   phases and targets on period / 16), where candidates of equal stub
   length are common and only the walk order picks the winner.  Every
   solve and every single-segment solve must equal the reference's bit
   for bit, and the draws must reach snaked, period-shifted and inner
   taps, the outer-only setting and ties. *)
let test_walker_matches_reference () =
  let rng = Rc_util.Rng.create 2024 in
  let snaked = ref 0 and shifted = ref 0 and inner = ref 0 and outer_only = ref 0 in
  let snapped = ref 0 in
  for case = 1 to 4000 do
    let snap = case mod 2 = 0 in
    let draw step lo hi =
      let v = Rc_util.Rng.float_in rng lo hi in
      if snap then step *. Float.round (v /. step) else v
    in
    let xmin = draw 50.0 (-500.0) 500.0 and ymin = draw 50.0 (-500.0) 500.0 in
    let w = draw 50.0 50.0 1500.0 and h = draw 50.0 50.0 1500.0 in
    let period = draw 100.0 200.0 2000.0 in
    let ring =
      Ring.make ~id:(case mod 97)
        ~rect:(Rect.make ~xmin ~ymin ~xmax:(xmin +. w) ~ymax:(ymin +. h))
        ~clockwise:(Reference_kernels.coin rng)
        ~t_ref:(Float.rem (draw (period /. 16.0) 0.0 period) period)
        ~period
    in
    let ff =
      Point.make
        (draw 50.0 (xmin -. 800.0) (xmin +. w +. 800.0))
        (draw 50.0 (ymin -. 800.0) (ymin +. h +. 800.0))
    in
    let target = draw (period /. 16.0) (-.period) (2.0 *. period) in
    if snap then incr snapped;
    let load = if Reference_kernels.coin rng then None else Some (Rc_util.Rng.float_in rng 0.5 300.0) in
    let use_complement = Rc_util.Rng.int rng 4 > 0 in
    if not use_complement then incr outer_only;
    let got = Tapping.solve ~use_complement ?load tech ring ~ff ~target in
    let want = Reference_kernels.Tapping_ref.solve ~use_complement ?load tech ring ~ff ~target in
    if tap_bits got <> tap_bits want then
      Alcotest.failf "case %d: solve differs from the list-based reference" case;
    if got.Tapping.snaked then incr snaked;
    if got.Tapping.periods_shifted <> 0 then incr shifted;
    if got.Tapping.conductor = Ring.Inner then incr inner;
    let segment = Rc_util.Rng.int rng 4 in
    let conductor = if Reference_kernels.coin rng then Ring.Outer else Ring.Inner in
    let got = Tapping.solve_on_segment tech ring ~segment ~conductor ~ff ~target in
    let want =
      Reference_kernels.Tapping_ref.solve_on_segment tech ring ~segment ~conductor ~ff ~target
    in
    if tap_bits got <> tap_bits want then
      Alcotest.failf "case %d: solve_on_segment differs from the list-based reference" case
  done;
  Alcotest.(check bool)
    (Printf.sprintf "reached snaked (%d), shifted (%d), inner (%d), outer-only (%d), snapped (%d)"
       !snaked !shifted !inner !outer_only !snapped)
    true
    (!snaked > 0 && !shifted > 0 && !inner > 0 && !outer_only > 0 && !snapped > 0)

(* --- time-domain wave simulation --- *)

let sim_result = lazy (Wave_sim.simulate Wave_sim.default_config)

let test_sim_locks () =
  let r = Lazy.force sim_result in
  Alcotest.(check bool) "oscillation locks" true r.Wave_sim.locked;
  Alcotest.(check bool) "amplitude grew from noise" true
    (r.Wave_sim.amplitude > 0.1 *. Wave_sim.default_config.Wave_sim.v_swing)

let test_sim_period_matches_eq2 () =
  let r = Lazy.force sim_result in
  let rel = Float.abs (r.Wave_sim.period -. r.Wave_sim.predicted_period) /. r.Wave_sim.predicted_period in
  Alcotest.(check bool)
    (Printf.sprintf "period %.2f vs Eq.2 %.2f (%.1f%%)" r.Wave_sim.period
       r.Wave_sim.predicted_period (100.0 *. rel))
    true (rel < 0.05)

let test_sim_phase_linear () =
  let r = Lazy.force sim_result in
  Alcotest.(check bool)
    (Printf.sprintf "linearity %.4f of a period" r.Wave_sim.phase_linearity)
    true
    (r.Wave_sim.phase_linearity < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "anti-phase error %.4f" r.Wave_sim.antiphase_error)
    true
    (r.Wave_sim.antiphase_error < 0.02)

let test_sim_loading_slows () =
  (* Eq. 2: more capacitance, longer period *)
  let heavy =
    Wave_sim.simulate { Wave_sim.default_config with Wave_sim.c_seg = 9.0; periods = 30.0 }
  in
  let light = Lazy.force sim_result in
  Alcotest.(check bool) "heavy ring locks" true heavy.Wave_sim.locked;
  Alcotest.(check bool)
    (Printf.sprintf "loaded %.1f > unloaded %.1f" heavy.Wave_sim.period light.Wave_sim.period)
    true
    (heavy.Wave_sim.period > light.Wave_sim.period);
  (* and tracks the sqrt(C) prediction within a few percent *)
  let expect = light.Wave_sim.period *. sqrt (9.0 /. 4.5) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f ~ sqrt-scaled %.1f" heavy.Wave_sim.period expect)
    true
    (Float.abs (heavy.Wave_sim.period -. expect) /. expect < 0.05)

let test_sim_deterministic () =
  let a = Wave_sim.simulate { Wave_sim.default_config with Wave_sim.periods = 20.0 } in
  let b = Wave_sim.simulate { Wave_sim.default_config with Wave_sim.periods = 20.0 } in
  Alcotest.(check (float 1e-12)) "same period" a.Wave_sim.period b.Wave_sim.period

let test_sim_coupled_locking () =
  let cfg = { Wave_sim.default_config with Wave_sim.periods = 80.0 } in
  let r = Wave_sim.simulate_coupled cfg in
  (* period scales with sqrt(L): a 4% inductance mistune is ~2% period *)
  Alcotest.(check bool)
    (Printf.sprintf "uncoupled mismatch %.4f ~ mistune/2" r.Wave_sim.uncoupled_mismatch)
    true
    (Float.abs (r.Wave_sim.uncoupled_mismatch -. 0.02) < 0.005);
  Alcotest.(check bool)
    (Printf.sprintf "coupling locks: %.5f" r.Wave_sim.coupled_mismatch)
    true r.Wave_sim.locked_together;
  (* out-of-range coupling does not lock *)
  let weak = Wave_sim.simulate_coupled ~coupling_r:1000.0 cfg in
  Alcotest.(check bool) "weak coupling fails to lock" true
    (not weak.Wave_sim.locked_together)

let test_sim_invalid () =
  Alcotest.check_raises "few segments"
    (Invalid_argument "Wave_sim.simulate: need >= 8 segments") (fun () ->
      ignore (Wave_sim.simulate { Wave_sim.default_config with Wave_sim.segments = 4 }));
  Alcotest.check_raises "bad dt" (Invalid_argument "Wave_sim.simulate: non-positive dt")
    (fun () -> ignore (Wave_sim.simulate { Wave_sim.default_config with Wave_sim.dt = 0.0 }))

let () =
  Alcotest.run "rc_rotary"
    [
      ( "ring",
        [
          Alcotest.test_case "geometry" `Quick test_ring_geometry;
          Alcotest.test_case "invalid" `Quick test_ring_invalid;
          Alcotest.test_case "delay profile" `Quick test_ring_delay_profile;
          Alcotest.test_case "point/arc roundtrip" `Quick test_ring_point_arc_roundtrip;
          Alcotest.test_case "closest distance" `Quick test_ring_closest_distance;
          Alcotest.test_case "oscillation frequency" `Quick test_ring_frequency;
        ] );
      ( "ring_array",
        [
          Alcotest.test_case "tiling" `Quick test_array_tiling;
          Alcotest.test_case "containing ring" `Quick test_array_containing;
          Alcotest.test_case "rings near" `Quick test_array_rings_near;
          Alcotest.test_case "capacities" `Quick test_array_capacities;
        ] );
      ( "tapping",
        [
          Alcotest.test_case "exact phase point" `Quick test_tap_exact_phase_point;
          Alcotest.test_case "complementary phase" `Quick test_tap_complementary_phase;
          Alcotest.test_case "interior flip-flop" `Quick test_tap_interior_ff;
          Alcotest.test_case "case 1: period reduction" `Quick test_tap_case1_period_reduction;
          Alcotest.test_case "case 4: wire snaking" `Quick test_tap_case4_snaking;
          Alcotest.test_case "case 2: two roots" `Quick test_tap_single_segment_two_roots;
          Alcotest.test_case "cost monotone in distance" `Quick test_tap_cost_monotone_distance;
          Alcotest.test_case "Fig. 2 curve shape" `Quick test_curve_shape;
          QCheck_alcotest.to_alcotest prop_tap_always_matches;
          QCheck_alcotest.to_alcotest prop_tap_on_ring_boundary;
        ] );
      ( "oracles",
        [ Alcotest.test_case "walker = list-based solver" `Quick test_walker_matches_reference ] );
      ( "wave_sim",
        [
          Alcotest.test_case "coupled rings lock" `Slow test_sim_coupled_locking;
          Alcotest.test_case "locks from noise" `Quick test_sim_locks;
          Alcotest.test_case "period matches Eq. 2" `Quick test_sim_period_matches_eq2;
          Alcotest.test_case "linear phase, anti-phase pair" `Quick test_sim_phase_linear;
          Alcotest.test_case "loading slows the ring" `Quick test_sim_loading_slows;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "invalid configs" `Quick test_sim_invalid;
        ] );
    ]
