(** Axis-aligned rectangles (chip outline, placement bins, ring bounding
    boxes). Degenerate (zero-area) rectangles are allowed. *)

type t = { xmin : float; ymin : float; xmax : float; ymax : float }

val make : xmin:float -> ymin:float -> xmax:float -> ymax:float -> t
(** @raise Invalid_argument if [xmax < xmin] or [ymax < ymin]. *)

val width : t -> float
val height : t -> float

val center : t -> Point.t

val contains : t -> Point.t -> bool
(** Closed containment test. *)

val expand : t -> float -> t
(** [expand r m] grows every side outward by margin [m] (shrinks for
    negative [m]; sides may cross for large negative margins — callers
    should only shrink by less than half the extent). *)

val clamp_point : t -> Point.t -> Point.t
(** Nearest point of the rectangle to the argument. *)
