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
