(** 2-D points in micrometers, with the Manhattan metric used throughout
    placement and clock-network cost computation. *)

type t = { x : float; y : float }

val make : float -> float -> t
(** [make x y]. *)

val zero : t
(** The origin. *)

val add : t -> t -> t
(** Componentwise sum. *)

val scale : float -> t -> t
(** [scale k p] multiplies both coordinates by [k]. *)

val manhattan : t -> t -> float
(** L1 distance — the routing-wire length between two points. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise tolerant equality. *)
