(** Directed axis-aligned segments. Rotary rings are built from eight of
    these; tapping-point search parametrizes a segment by arc length from
    its start. *)

type t = { a : Point.t; b : Point.t }
(** Directed from [a] to [b]. Must be horizontal or vertical. *)

val make : Point.t -> Point.t -> t
(** @raise Invalid_argument if the segment is not axis-aligned. *)

val length : t -> float
(** Manhattan (= Euclidean, segment is axis-aligned) length. *)

val point_at : t -> float -> Point.t
(** [point_at s d] is the point at arc distance [d] from [s.a] along the
    segment direction. [d] is clamped into [0, length s]. *)

val param_of_point : t -> Point.t -> float
(** Arc-length parameter of the projection of a point onto the segment's
    supporting line, clamped into [0, length]. *)

val manhattan_to_point : t -> Point.t -> float
(** Shortest Manhattan distance from any point of the segment to the
    given point. *)

val is_horizontal : t -> bool
