(** Half-perimeter wirelength (HPWL) — the signal-wirelength metric of
    every experiment table. *)

val net_hpwl : Rc_netlist.Netlist.t -> Rc_geom.Point.t array -> int -> float
(** HPWL of one net under the given cell positions. *)

val total : Rc_netlist.Netlist.t -> Rc_geom.Point.t array -> float
(** Sum of HPWL over all nets (µm). *)

val net_star_length : Rc_netlist.Netlist.t -> Rc_geom.Point.t array -> int -> float
(** Total driver-to-sink star wirelength of a net — used as the routed
    length estimate for capacitance/power computations. *)
