(** Global-routing grid: the die divided into g-cells with directed
    edge capacities between adjacent cells, the usual abstraction under
    pattern/maze global routers. Usage is tracked per edge so the router
    can negotiate congestion. *)

type t

val create : chip:Rc_geom.Rect.t -> nx:int -> ny:int -> capacity:int -> t
(** [nx × ny] g-cells, each boundary crossing holding [capacity] tracks.
    @raise Invalid_argument on non-positive dimensions or capacity. *)

val nx : t -> int
val ny : t -> int

val cell_of : t -> Rc_geom.Point.t -> int * int
(** G-cell containing a point (clamped to the grid). *)

val cell_pitch : t -> float * float
(** Physical (width, height) of one g-cell, µm. *)

val usage : t -> (int * int) -> (int * int) -> int
(** Tracks used on the edge between two adjacent cells.
    @raise Invalid_argument if the cells are not 4-neighbors. *)

val capacity : t -> int

val add_usage : t -> (int * int) -> (int * int) -> int -> unit
(** Add (or with a negative delta, release) usage on an edge. *)

val overflow : t -> int
(** Total usage beyond capacity, summed over edges. *)

val congestion_map : t -> float array array
(** Per-cell congestion estimate: the maximum usage/capacity ratio of
    the cell's edges ([nx × ny], row-major [x][y]). *)
