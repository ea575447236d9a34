open Rc_netlist

let position netlist positions c =
  if Netlist.movable netlist c then positions.(c) else Netlist.pad_position netlist c

(* The bounding box folded over the driver and the sinks, one
   Float.min/Float.max step per pin, without building a point list or a
   rectangle per net; test_place holds it bit for bit to the point-list
   fold, nans and signed zeros included. *)
let net_hpwl netlist positions ni =
  let net = Netlist.net netlist ni in
  let (d : Rc_geom.Point.t) = position netlist positions net.driver in
  let xmin = ref d.x and ymin = ref d.y and xmax = ref d.x and ymax = ref d.y in
  for k = 0 to Array.length net.sinks - 1 do
    let (q : Rc_geom.Point.t) = position netlist positions net.sinks.(k) in
    xmin := Float.min !xmin q.x;
    ymin := Float.min !ymin q.y;
    xmax := Float.max !xmax q.x;
    ymax := Float.max !ymax q.y
  done;
  (!xmax -. !xmin) +. (!ymax -. !ymin)

let total netlist positions =
  let acc = ref 0.0 in
  for ni = 0 to Netlist.n_nets netlist - 1 do
    acc := !acc +. net_hpwl netlist positions ni
  done;
  !acc

let net_star_length netlist positions ni =
  let net = Netlist.net netlist ni in
  let d = position netlist positions net.driver in
  Array.fold_left
    (fun acc s -> acc +. Rc_geom.Point.manhattan d (position netlist positions s))
    0.0 net.sinks
