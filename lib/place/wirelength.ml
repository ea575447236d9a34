open Rc_netlist

let position netlist positions c =
  if Netlist.movable netlist c then positions.(c) else Netlist.pad_position netlist c

let net_hpwl netlist positions ni =
  let net = Netlist.net netlist ni in
  let pts =
    position netlist positions net.driver
    :: Array.to_list (Array.map (position netlist positions) net.sinks)
  in
  Rc_geom.Rect.half_perimeter (Rc_geom.Rect.of_points pts)

let total netlist positions =
  let acc = ref 0.0 in
  Netlist.iter_nets netlist (fun ni _ -> acc := !acc +. net_hpwl netlist positions ni);
  !acc

let net_star_length netlist positions ni =
  let net = Netlist.net netlist ni in
  let d = position netlist positions net.driver in
  Array.fold_left
    (fun acc s -> acc +. Rc_geom.Point.manhattan d (position netlist positions s))
    0.0 net.sinks
