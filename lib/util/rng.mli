(** Deterministic pseudo-random number generation.

    All stochastic parts of the library (benchmark synthesis, placement
    jitter, property tests) draw from this splitmix64 generator so that a
    given seed reproduces a run bit-for-bit, independently of the OCaml
    stdlib [Random] state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds
    yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [lo, hi). *)

val gaussian : t -> mean:float -> sigma:float -> float
(** Box-Muller normal deviate. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on
    empty input. *)

val bits64 : t -> int64
(** Next raw 64-bit output of the generator. *)

val skip : t -> int -> unit
(** [skip t n] advances [t] past its next [n] draws in constant time:
    afterwards [t] yields what it would have yielded after [n] calls of
    {!bits64} (each of {!float}, {!float_in} and {!int} is one draw).
    @raise Invalid_argument if [n < 0]. *)

val ahead : t -> int -> t
(** [ahead t n] is a fresh generator whose stream starts at [t]'s draw
    [n] (counting from 0); [t] itself is unchanged.  Disjoint stretches
    of one stream can so be drawn by independent workers.
    @raise Invalid_argument if [n < 0]. *)
