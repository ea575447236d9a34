(* Tests for Rc_power: the Eq. 8 dynamic-power arithmetic, clock vs
   signal accounting and repeater estimation. *)

open Rc_netlist
open Netlist

let tech = Rc_tech.Tech.default
let check_float eps = Alcotest.(check (float eps))

let test_dynamic_formula () =
  (* ½αV²fC: α=1, V=1.2, f=1 GHz, C=1000 fF -> 0.72 mW *)
  check_float 1e-9 "1000 fF at alpha 1" 0.72 (Rc_power.Power.dynamic_mw tech ~alpha:1.0 ~cap_ff:1000.0);
  check_float 1e-12 "zero cap" 0.0 (Rc_power.Power.dynamic_mw tech ~alpha:1.0 ~cap_ff:0.0);
  (* linear in alpha and cap *)
  check_float 1e-9 "alpha scales" 0.108
    (Rc_power.Power.dynamic_mw tech ~alpha:0.15 ~cap_ff:1000.0)

let test_clock_power () =
  (* 1000 um of stub wire + 10 ffs: C = 0.12*1000 + 10*25 = 370 fF *)
  let p = Rc_power.Power.clock_power_mw tech ~tapping_wirelength:1000.0 ~n_ffs:10 in
  check_float 1e-9 "analytic" (Rc_power.Power.dynamic_mw tech ~alpha:1.0 ~cap_ff:370.0) p;
  Alcotest.(check bool) "monotone in wirelength" true
    (Rc_power.Power.clock_power_mw tech ~tapping_wirelength:2000.0 ~n_ffs:10 > p)

let test_buffer_estimate () =
  Alcotest.(check int) "short net" 0 (Rc_power.Power.estimated_buffers tech ~length:500.0);
  Alcotest.(check int) "one interval" 1 (Rc_power.Power.estimated_buffers tech ~length:2500.0);
  Alcotest.(check int) "three intervals" 3 (Rc_power.Power.estimated_buffers tech ~length:6100.0);
  Alcotest.(check int) "zero length" 0 (Rc_power.Power.estimated_buffers tech ~length:0.0)

let test_signal_cap_hand_computed () =
  (* one net: input pad at (0,0) driving a logic cell at (1000,0) and an
     ff at (0,1000): star length 2000 um *)
  let kinds = [| Input_pad; Logic; Flipflop |] in
  let nets = [| { driver = 0; sinks = [| 1; 2 |] } |] in
  let nl = Netlist.make ~name:"p" ~kinds ~nets ~pad_positions:[ (0, Rc_geom.Point.zero) ] in
  let positions = [| Rc_geom.Point.zero; Rc_geom.Point.make 1000.0 0.0; Rc_geom.Point.make 0.0 1000.0 |] in
  let cap =
    (tech.Rc_tech.Tech.c_wire *. 2000.0)
    +. tech.Rc_tech.Tech.c_gate +. tech.Rc_tech.Tech.c_ff
    +. float_of_int (Rc_power.Power.estimated_buffers tech ~length:2000.0)
       *. tech.Rc_tech.Tech.buffer_c_in
  in
  check_float 1e-9 "power uses alpha_signal on the hand-computed cap"
    (Rc_power.Power.dynamic_mw tech ~alpha:tech.Rc_tech.Tech.alpha_signal ~cap_ff:cap)
    (Rc_power.Power.signal_power_mw tech nl positions)

let prop_power_monotone_in_positions =
  QCheck.Test.make ~name:"spreading cells apart increases signal power" ~count:30
    QCheck.small_int (fun seed ->
      let kinds = [| Input_pad; Logic; Logic |] in
      let nets = [| { driver = 0; sinks = [| 1; 2 |] } |] in
      let nl = Netlist.make ~name:"m" ~kinds ~nets ~pad_positions:[ (0, Rc_geom.Point.zero) ] in
      let rng = Rc_util.Rng.create (seed + 2) in
      let x = Rc_util.Rng.float rng 500.0 and y = Rc_util.Rng.float rng 500.0 in
      let near = [| Rc_geom.Point.zero; Rc_geom.Point.make x y; Rc_geom.Point.make y x |] in
      let far =
        [| Rc_geom.Point.zero; Rc_geom.Point.make (2.0 *. x) (2.0 *. y);
           Rc_geom.Point.make (2.0 *. y) (2.0 *. x) |]
      in
      Rc_power.Power.signal_power_mw tech nl near
      <= Rc_power.Power.signal_power_mw tech nl far +. 1e-9)

let () =
  Alcotest.run "rc_power"
    [
      ( "dynamic",
        [
          Alcotest.test_case "Eq. 8 formula" `Quick test_dynamic_formula;
          Alcotest.test_case "clock net" `Quick test_clock_power;
          Alcotest.test_case "repeater estimate" `Quick test_buffer_estimate;
          Alcotest.test_case "signal cap hand-computed" `Quick test_signal_cap_hand_computed;
          QCheck_alcotest.to_alcotest prop_power_monotone_in_positions;
        ] );
    ]
