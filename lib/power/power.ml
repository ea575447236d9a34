open Rc_tech

(* ½·α·V²·f·C — with C in fF and f in GHz this is
   0.5·α·V²·(f·1e9)·(C·1e-15) W = 0.5·α·V²·f·C·1e-6 W = 0.5·α·V²·f·C·1e-3 mW. *)
let dynamic_mw tech ~alpha ~cap_ff =
  0.5 *. alpha *. tech.Tech.vdd *. tech.Tech.vdd *. Tech.f_clk_ghz tech *. cap_ff *. 1e-3

let clock_power_mw tech ~tapping_wirelength ~n_ffs =
  let cap =
    (tech.Tech.c_wire *. tapping_wirelength) +. (float_of_int n_ffs *. tech.Tech.c_ff)
  in
  dynamic_mw tech ~alpha:tech.Tech.alpha_clock ~cap_ff:cap

let estimated_buffers tech ~length =
  if length <= 0.0 then 0 else int_of_float (length /. tech.Tech.buffer_interval)

let signal_cap_ff tech netlist positions =
  let acc = ref 0.0 in
  Rc_netlist.Netlist.iter_nets netlist (fun ni net ->
      let len = Rc_place.Wirelength.net_star_length netlist positions ni in
      acc := !acc +. (tech.Tech.c_wire *. len);
      acc := !acc +. (float_of_int (estimated_buffers tech ~length:len) *. tech.Tech.buffer_c_in);
      Array.iter
        (fun s ->
          match Rc_netlist.Netlist.kind netlist s with
          | Rc_netlist.Netlist.Flipflop -> acc := !acc +. tech.Tech.c_ff
          | Rc_netlist.Netlist.Logic -> acc := !acc +. tech.Tech.c_gate
          | _ -> ())
        net.Rc_netlist.Netlist.sinks);
  !acc

let signal_power_mw tech netlist positions =
  dynamic_mw tech ~alpha:tech.Tech.alpha_signal ~cap_ff:(signal_cap_ff tech netlist positions)
