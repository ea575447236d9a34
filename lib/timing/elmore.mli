(** Elmore delay model [21] for point-to-point routed wires, the timing
    model the paper's static timing analyzer uses. *)

val point_delay :
  Rc_tech.Tech.t -> Rc_geom.Point.t -> Rc_geom.Point.t -> load:float -> float
(** Delay (ps) of a wire spanning the Manhattan distance [l] (µm)
    between two points and driving a lumped [load] (fF) at the far end:
    ½rcl² + rl·C_load. *)

val sink_load : Rc_tech.Tech.t -> Rc_netlist.Netlist.t -> int -> float
(** Input capacitance (fF) presented by a sink cell: [c_ff] for
    flip-flops, [c_gate] for logic, [buffer_c_in] for output pads. *)
