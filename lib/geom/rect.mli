(** Axis-aligned rectangles (chip outline, placement bins, ring bounding
    boxes). Degenerate (zero-area) rectangles are allowed. *)

type t = { xmin : float; ymin : float; xmax : float; ymax : float }

val make : xmin:float -> ymin:float -> xmax:float -> ymax:float -> t
(** @raise Invalid_argument if [xmax < xmin] or [ymax < ymin]. *)

val of_points : Point.t list -> t
(** Bounding box of a non-empty point list.
    @raise Invalid_argument on empty input. *)

val width : t -> float
val height : t -> float

val half_perimeter : t -> float
(** [width + height] — the HPWL contribution of a net with this
    bounding box. *)

val center : t -> Point.t

val contains : t -> Point.t -> bool
(** Closed containment test. *)

val expand : t -> float -> t
(** [expand r m] grows every side outward by margin [m] (shrinks for
    negative [m]; sides may cross for large negative margins — callers
    should only shrink by less than half the extent). *)

val clamp_point : t -> Point.t -> Point.t
(** Nearest point of the rectangle to the argument. *)
