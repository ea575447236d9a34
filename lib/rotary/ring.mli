(** One rotary traveling-wave clock ring (Fig. 1a), laid out as a square
    in the chip plane.

    The differential line is a Möbius loop: a wavefront traverses the
    physical perimeter twice (once per conductor) in one clock period
    [T]. At arc position [d] from the ring origin the two conductors
    carry delays [t_ref + ρ·d] and [t_ref + ρ·d + T/2], with
    [ρ = T / (2 · perimeter)] — every physical point offers a phase and
    its complement, which the paper exploits by flipping flip-flop
    polarity. *)

type conductor = Outer | Inner
(** The two lines of the differential pair. [Inner] is the +T/2
    complement of [Outer]. *)

type t = {
  id : int;
  rect : Rc_geom.Rect.t;  (** The square outline of the ring. *)
  clockwise : bool;  (** Wave propagation direction. *)
  t_ref : float;  (** Clock delay at the ring origin (ps). *)
  period : float;  (** Clock period T (ps). *)
}

val make :
  id:int -> rect:Rc_geom.Rect.t -> clockwise:bool -> t_ref:float -> period:float -> t
(** @raise Invalid_argument on a degenerate rectangle or non-positive
    period. *)

val perimeter : t -> float
(** Physical perimeter (µm). *)

val rho : t -> float
(** Signal delay per µm of arc (ps/µm): [period / (2 · perimeter)]. *)

val segments : t -> (Rc_geom.Segment.t * float) array
(** The four edges in propagation order, each with the arc position of
    its start point. *)

val delay_at : t -> arc:float -> conductor:conductor -> float
(** Clock delay (ps) at arc position [arc] (wrapped into the perimeter)
    on the given conductor, normalized into [0, T). *)

val point_at : t -> arc:float -> Rc_geom.Point.t
(** Physical location of an arc position. *)

val arc_of_point : t -> Rc_geom.Point.t -> float
(** Arc position of the boundary point nearest (in Manhattan distance)
    to the argument. *)

val closest_boundary_distance : t -> Rc_geom.Point.t -> float
(** Shortest Manhattan distance from the point to the ring edge — the
    [l_i] of the cost-driven skew formulation. *)

val oscillation_frequency_ghz : Rc_tech.Tech.t -> t -> load_cap:float -> float
(** Eq. 2: [1 / (2·sqrt(L_total·C_total))] with [C_total] the ring's own
    capacitance plus [load_cap] (fF), expressed in GHz. *)
