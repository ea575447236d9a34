(** poll(2) readiness for loadgen's event-driven client, scaling past
    the 1024-fd [Unix.select] cap (loadgen drives thousands of
    connections from one thread through this).

    Usage per round: {!begin_round}, {!add} each fd with its interest
    bits, {!wait}, then read {!revents} back by the index {!add}
    returned. *)

type t

val pollin : int
val pollout : int
val pollerr : int

val create : int -> t
(** Preallocate scratch for up to [capacity] fds per round. *)

val begin_round : t -> unit

val add : t -> Unix.file_descr -> events:int -> int
(** Register [fd] for this round; returns its row index. *)

val wait : t -> timeout_ms:int -> int
(** Poll all registered fds.  Returns the ready count (0 on timeout or
    EINTR); readiness is read back per-row via {!revents}. *)

val revents : t -> int -> int
(** Ready bits ({!pollin} / {!pollout} / {!pollerr}) for row [i] after
    {!wait}. *)
