(** Tolerant floating-point comparisons for geometric and LP code. *)

val equal : ?eps:float -> float -> float -> bool
(** [equal a b] holds when [|a - b| <= eps * max(1, |a|, |b|)]; [eps]
    defaults to 1e-9. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [lo, hi]. *)
