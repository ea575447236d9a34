(** Time-domain simulation of a rotary traveling-wave ring — the physics
    behind the phase model that the rest of the library takes as given.

    The differential ring is discretized into an LC ladder: two
    conductors of [segments] sections each, closed as a Möbius loop (the
    end of each conductor feeds the start of the other, Fig. 1a's cross
    connection), with an anti-parallel inverter pair (tanh
    transconductance plus loss) at every node. Leapfrog integration of
    the telegrapher equations; oscillation starts from seeded noise,
    exactly as [13] describes.

    The extracted steady state validates three modeling assumptions:
    - the rotation period tracks Eq. 2's [2·sqrt(L_total·C_total)];
    - the phase at a node grows linearly with its arc position (what
      {!Ring.delay_at} assumes);
    - the two conductors are locked in anti-phase (the complementary
      taps of Section III). *)

type config = {
  segments : int;  (** LC sections per conductor (≥ 8). *)
  l_seg : float;  (** Inductance per section, pH. *)
  c_seg : float;  (** Capacitance per section, fF. *)
  r_seg : float;  (** Series resistance per section, Ω. *)
  gm : float;  (** Inverter transconductance, mS. *)
  v_swing : float;  (** Inverter saturation voltage, V. *)
  dt : float;  (** Time step, ps (must resolve [sqrt(l·c)]). *)
  periods : float;  (** How many nominal periods to simulate. *)
  seed : int;  (** Startup-noise seed. *)
}

val default_config : config
(** A 600 µm ring at the library's technology constants, 64 sections. *)

type result = {
  period : float;  (** Measured oscillation period, ps (nan if not locked). *)
  predicted_period : float;  (** Eq. 2: [2·sqrt(L_total·C_total)], ps. *)
  amplitude : float;  (** Steady-state swing at node 0 (normalized units; only the lock threshold matters). *)
  node_phase : float array;  (** Measured phase of each node of conductor A, fraction of a period relative to node 0, in [0, 1). *)
  phase_linearity : float;  (** Max deviation of [node_phase] from the ideal linear profile, fraction of a period. *)
  antiphase_error : float;  (** Worst deviation of conductor B from exact anti-phase, fraction of a period. *)
  locked : bool;  (** True when a stable oscillation was detected. *)
}

val simulate : config -> result
(** Run the simulation. @raise Invalid_argument on a non-positive time
    step or fewer than 8 segments. *)

(** {1 Coupled rings}

    Arrays lock neighboring rings to a common rotation (Fig. 1b); this
    is what suppresses ring-to-ring skew variation. The coupled
    simulation integrates two rings, the second mistuned in inductance,
    joined by resistive bridges at a few facing positions, and compares
    their frequency mismatch with and without the coupling. *)

type coupled_result = {
  uncoupled_mismatch : float;
      (** |T₁ − T₂| / T₁ when simulated independently (≈ mistune/2). *)
  coupled_mismatch : float;  (** The same measured with coupling active. *)
  locked_together : bool;  (** Both rings oscillate and the coupled mismatch collapsed. *)
}

val simulate_coupled : ?coupling_r:float -> config -> coupled_result
(** The second ring's inductance is 4 % above the first's;
    [coupling_r] (default 40 Ω) is each bridge's
    resistance (8 bridges, evenly spaced). Bridges much weaker than
    ~200 Ω fall out of the locking range — observable by sweeping. *)
