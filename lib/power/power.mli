(** Power models of Section VIII.

    Dynamic power follows Eq. 8: [P = ½·α·V_dd²·f_clk·C_load], with
    α = 1 for the clock net and α = 0.15 for signal nets [30]. The
    clock-net load of a rotary design is the tapping stubs plus the
    flip-flop clock pins — the ring's own charge recirculates, which is
    the technology's selling point. Signal-net load is interconnect plus
    logic input pins plus estimated repeaters ([31]-style length-based
    estimate). Leakage (Eq. 9) is unaffected by this flow and is not
    modelled. *)

val dynamic_mw : Rc_tech.Tech.t -> alpha:float -> cap_ff:float -> float
(** Eq. 8 for a given switched capacitance (fF), result in mW. *)

val clock_power_mw : Rc_tech.Tech.t -> tapping_wirelength:float -> n_ffs:int -> float
(** Clock-net dynamic power: stub wire capacitance over the total
    tapping wirelength (µm) plus [n_ffs] flip-flop clock pins, α = 1. *)

val estimated_buffers : Rc_tech.Tech.t -> length:float -> int
(** Repeaters inserted on a net of routed length [length] µm: one per
    [buffer_interval] beyond the first. *)

val signal_power_mw :
  Rc_tech.Tech.t -> Rc_netlist.Netlist.t -> Rc_geom.Point.t array -> float
(** Signal-net dynamic power at α = [alpha_signal] over the total
    signal-net capacitance: star-routed interconnect + sink input pins +
    estimated repeaters. *)
