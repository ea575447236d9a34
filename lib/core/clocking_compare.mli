(** The introduction's three-way comparison, quantified on our layouts:
    conventional zero-skew tree vs clock mesh [11] vs rotary clocking —
    clock wirelength, switched capacitance, dynamic power (Eq. 8), and
    Monte-Carlo skew spread. The mesh achieves low skew variation at a
    large switched-capacitance cost; the rotary design gets both low
    variation (short stubs + phase-locked rings) and low switched
    capacitance (the ring energy recirculates). *)

type row = {
  scheme : string;
  clock_wire : float;  (** Switched clock wire, µm (ring metal excluded — it recirculates). *)
  clock_cap : float;  (** Switched capacitance, fF. *)
  clock_power : float;  (** mW at α = 1. *)
  skew_spread : float;  (** Monte-Carlo mean worst spread, ps. *)
  extra : string;  (** Scheme-specific note. *)
}

val run :
  ?model:Rc_variation.Variation.model -> Flow.outcome -> row list * Rc_obs.Report.table
(** Evaluate all three schemes over the outcome's flip-flops; the table
    has one row per scheme. The mesh uses a realistic ~100 µm pitch
    (dense grids are how meshes achieve low skew). *)
