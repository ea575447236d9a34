(** A chip-spanning array of coupled rotary rings (Fig. 1b), generated as
    in Wood et al. [13]: a g×g tiling of square rings with alternating
    propagation direction (checkerboard) so that abutting edges carry
    co-propagating waves and phase-lock. All rings share the same
    reference delay at their origin corner — the "equal-phase points"
    marked by triangles in Fig. 1(b). *)

type t

val create :
  ?period:float ->
  chip:Rc_geom.Rect.t ->
  grid:int ->
  unit ->
  t
(** Tile [chip] with [grid × grid] rings. [period] defaults to 1000 ps
    (1 GHz); the delay at every ring origin is 0.
    @raise Invalid_argument if [grid < 1]. *)

val n_rings : t -> int
val ring : t -> int -> Ring.t
val rings : t -> Ring.t array
val grid : t -> int
val period : t -> float

val containing_ring : t -> Rc_geom.Point.t -> int
(** The ring whose tile contains the point (points outside the chip are
    clamped to the nearest tile). *)

val rings_near : t -> Rc_geom.Point.t -> int -> int list
(** The [k] rings whose tile centers are closest (Manhattan) to the
    point, nearest first — the candidate-arc pruning of the Section V
    assignment network. *)

val default_capacities : t -> n_ffs:int -> slack:float -> int array
(** Uniform per-ring capacity [U_j = ceil(slack · n_ffs / n_rings)]. *)
