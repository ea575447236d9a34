(** Binary min-heap keyed by floats, used by Dijkstra and the placer's
    legalizer. Stale-entry (lazy deletion) discipline is the caller's
    responsibility: [push] never updates an existing element. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the minimum-key entry, or [None] when empty. *)

val clear : 'a t -> unit
