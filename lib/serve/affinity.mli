(** Per-process CPU affinity for the supervised worker tier
    ([rotary_cli serve --pin-cores]): pinning worker [i] to core
    [i mod ncores] keeps its working set in that core's caches.
    Linux-only; elsewhere {!pin_self} reports [Unsupported] and the
    worker logs a warning instead of failing. *)

type outcome = Pinned | Failed | Unsupported

val ncores : unit -> int
(** Online CPU count (>= 1; 1 on unsupported platforms). *)

val pin_self : int -> outcome
(** Pin the calling process to core [core mod ncores ()]. *)
