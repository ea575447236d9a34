(** Technology and operating-point constants.

    Units used across the whole library: micrometers for length,
    picoseconds for time, femtofarads for capacitance, ohms for
    resistance, volts and milliwatts for power. The defaults are
    180 nm-class values in the spirit of the Berkeley Predictive
    Technology Model the paper takes its interconnect parameters from;
    only relative magnitudes matter for the reported improvements. *)

type t = {
  r_wire : float;  (** Wire resistance, Ω/µm. *)
  c_wire : float;  (** Wire capacitance, fF/µm. *)
  c_ff : float;  (** Flip-flop clock-input capacitance, fF. *)
  c_gate : float;  (** Average logic-gate input capacitance, fF. *)
  gate_delay : float;  (** Intrinsic gate delay, ps. *)
  gate_delay_min : float;  (** Fast-corner gate delay used for D_min, ps. *)
  t_setup : float;  (** Flip-flop setup time, ps. *)
  t_hold : float;  (** Flip-flop hold time, ps. *)
  clock_period : float;  (** T, ps (1 GHz default → 1000 ps). *)
  vdd : float;  (** Supply voltage, V. *)
  alpha_clock : float;  (** Clock-net switching activity (1.0). *)
  alpha_signal : float;  (** Signal-net switching activity (0.15, [30]). *)
  buffer_c_in : float;  (** Signal-repeater input capacitance, fF. *)
  buffer_interval : float;  (** Optimal repeater spacing, µm ([31]-style estimate). *)
  l_wire : float;  (** Transmission-line inductance of a ring conductor, pH/µm. *)
}

val default : t
(** The 180 nm-class operating point used by every experiment. *)

val f_clk_ghz : t -> float
(** Clock frequency in GHz derived from [clock_period]. *)

val wire_elmore : t -> float -> float -> float
(** [wire_elmore tech l c_load] is the Elmore delay (ps) of a wire of
    length [l] µm driving an extra lumped load [c_load] fF:
    [½·r·c·l² + r·l·c_load]. This is the delay expression of Eq. 1. *)
