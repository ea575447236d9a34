(** Small descriptive-statistics helpers used by metrics and benches. *)

val mean : float array -> float
(** Arithmetic mean; 0. on empty input. *)

val min_max : float array -> float * float
(** [(min, max)] of a non-empty array. @raise Invalid_argument on empty. *)

val stddev : float array -> float
(** Population standard deviation; 0. for fewer than two samples. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [0,100], linear interpolation between
    order statistics. Copies and sorts internally.
    @raise Invalid_argument on empty input or [p] outside [0,100]. *)

val pct_improvement : from:float -> to_:float -> float
(** [(from - to_) / from * 100]: positive when [to_] is smaller (an
    improvement in the paper's sign convention); [nan] when [from] is
    zero. *)
