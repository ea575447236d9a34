(** Tolerant floating-point comparisons for geometric and LP code. *)

val equal : float -> float -> bool
(** [equal a b] holds when [|a - b| <= 1e-9 * max(1, |a|, |b|)]. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [lo, hi]. *)
