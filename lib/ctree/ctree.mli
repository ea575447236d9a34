(** Conventional zero-skew clock tree — the baseline whose average
    source-to-sink path length is the "PL" column of Table II.

    Topology by the method of means and medians (recursive geometric
    median bisection, Chao et al. [5] / Edahiro [7] style), embedding by
    exact zero-skew bottom-up merging (Tsay [6]): each internal tap
    point balances the Elmore delays of its two subtrees, elongating
    (snaking) the wire when balance is impossible on the direct run. *)

type t

type stats = {
  n_sinks : int;
  total_wirelength : float;  (** Total tree wire, µm. *)
  avg_path_length : float;  (** Mean source→sink path length, µm — "PL". *)
  max_path_length : float;
  root_delay : float;  (** The (equal) Elmore source→sink delay, ps. *)
  max_skew : float;  (** Residual numerical skew across sinks, ps. *)
}

val build :
  Rc_tech.Tech.t -> sinks:(Rc_geom.Point.t * float) list -> t
(** Build a zero-skew tree over [(position, load_capacitance_fF)] sinks.
    @raise Invalid_argument on an empty sink list. *)

val stats : t -> stats

val root_position : t -> Rc_geom.Point.t

val sink_delays : t -> float array
(** Elmore delay from root to each sink (in input order) — all equal up
    to numerical tolerance, by construction. *)

val sink_delays_perturbed : t -> edge_factor:(float -> float) -> float array
(** Root-to-sink Elmore delays where every tree edge's delay is scaled
    by [edge_factor wirelength] (called once per edge, in a fixed
    traversal order — feed it a seeded sampler for Monte-Carlo process
    variation). [edge_factor] returning 1.0 everywhere reproduces
    {!sink_delays}. *)
