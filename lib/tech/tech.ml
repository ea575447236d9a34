type t = {
  r_wire : float;
  c_wire : float;
  c_ff : float;
  c_gate : float;
  gate_delay : float;
  gate_delay_min : float;
  t_setup : float;
  t_hold : float;
  clock_period : float;
  vdd : float;
  alpha_clock : float;
  alpha_signal : float;
  buffer_c_in : float;
  buffer_interval : float;
  l_wire : float;
}

let default =
  {
    r_wire = 0.1;
    c_wire = 0.12;
    c_ff = 25.0;
    c_gate = 6.0;
    gate_delay = 35.0;
    gate_delay_min = 18.0;
    t_setup = 40.0;
    t_hold = 15.0;
    clock_period = 1000.0;
    vdd = 1.2;
    alpha_clock = 1.0;
    alpha_signal = 0.15;
    buffer_c_in = 12.0;
    buffer_interval = 2000.0;
    l_wire = 0.5;
  }

let f_clk_ghz t = 1000.0 /. t.clock_period

(* r [Ω/µm] * c [fF/µm] * l² [µm²] = Ω·fF = 1e-15 s = femtoseconds,
   so divide by 1000 to express the result in picoseconds. *)
let wire_elmore t l c_load =
  ((0.5 *. t.r_wire *. t.c_wire *. l *. l) +. (t.r_wire *. l *. c_load)) /. 1000.0

