(** Mmap'd shared-memory counter segment of the supervised service
    tier: per-worker liveness and counters, read live by
    [rotary_cli top] and the supervisor's [status] op.  Job and
    response bodies never pass through it — they ride the NDJSON
    socketpair between the supervisor and each worker.

    {1 Layout (version 5)}

    A segment is one 4096-byte header page followed by one 4096-byte
    counter slot per worker.  Every cell is a native OCaml int (8
    bytes).  The field-by-field layout is documented in
    [docs/operations.md]; {!layout_version} bumps on any change and
    {!attach} rejects segments of other versions.

    A counter slot holds two independently seqlock'd regions: the
    {e worker region} (words 0–255, written only by that worker's
    heartbeat thread — pid, state, heartbeat timestamp, scheduler and
    checkpoint counters, and the fixed
    {!Rc_obs.Metrics.export_names} solver table) and the {e control
    region} (words 256–511, written only by the supervisor).

    {1 Consistency}

    Writers bump the region's sequence word odd, write, bump it even;
    readers retry while the sequence is odd or changed under them.  All
    cell accesses use acquire/release atomics (C stubs), so reads are
    consistent across processes.  A reader that exhausts its retry
    budget (e.g. the writer was SIGKILLed mid-write) gets the torn row
    back flagged inconsistent rather than spinning forever. *)

val layout_version : int

type t

(** {1 Worker-region rows} *)

type worker_state = W_starting | W_serving | W_draining | W_stopped

type worker_row = {
  pid : int;
  state : worker_state;
  started_ns : int;  (** CLOCK_MONOTONIC at worker start (machine-wide). *)
  heartbeat_ns : int;  (** CLOCK_MONOTONIC at the last heartbeat. *)
  requests : int;  (** request lines read from the supervisor. *)
  responses : int;  (** response lines written back. *)
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  rejected : int;
  queue_depth : int;
  running : int;
  job_wall_ms : int;  (** total scheduler job wall time, milliseconds. *)
  shm_fallbacks : int;
      (** Always 0: there is no shared-memory job path to fall back
          from.  Kept so readers of the row keep working. *)
  ckpt_saves : int;  (** checkpoint files this worker wrote. *)
  ckpt_skips : int;  (** checkpoint file writes that failed. *)
  solver : int array;  (** {!Rc_obs.Metrics.export_names} order. *)
}

val empty_worker_row : worker_row

(** {1 Control-region rows} *)

type control_state = C_down | C_up | C_draining

val control_state_name : control_state -> string

type control_row = {
  c_pid : int;  (** 0 while down. *)
  c_state : control_state;
  c_restarts : int;  (** completed respawns of this slot. *)
  c_spawned_ns : int;
  c_inflight : int;  (** jobs currently dispatched to this worker. *)
  c_redispatched : int;  (** jobs moved off this slot after a crash. *)
  c_resumed : int;  (** flows resumed from a checkpoint after a crash. *)
}

type row = {
  worker : worker_row;
  control : control_row;
  w_consistent : bool;  (** [false] = torn read (writer died mid-write). *)
  c_consistent : bool;
}

(** {1 Lifecycle} *)

val create : path:string -> n_workers:int -> unit -> t
(** Create and map a segment writable, with every slot empty.  A file
    already at [path] is replaced, not reused: the new segment is a
    fresh file renamed into place, so a process still mapping the old
    one (an orphaned worker of a killed supervisor) cannot write into
    it. *)

val attach : path:string -> unit -> (t, string) result
(** Map an existing segment, validating magic, layout version and size.
    Worker processes attach to write their slot's worker region;
    observers ([rotary_cli top]) attach and must only read.  Errors are
    descriptive strings, never exceptions. *)

val n_workers : t -> int
val path : t -> string
val supervisor_pid : t -> int
val tcp_port : t -> int option
(** The supervisor's TCP front-door port, when one is bound — lets
    tools discover the server from the segment alone. *)

val set_tcp_port : t -> int -> unit

(** {1 Access} *)

val write_worker : t -> slot:int -> worker_row -> unit
(** Seqlock-publish the worker region of [slot].  One writer per region:
    only the owning worker's heartbeat thread may call this. *)

val write_control : t -> slot:int -> control_row -> unit
(** Seqlock-publish the control region of [slot] (supervisor only). *)

val read_all : t -> row array
(** A consistent snapshot of both regions of every slot, in slot order
    (each retried per the seqlock); torn regions are flagged via
    [w_consistent] / [c_consistent]. *)

val to_json : t -> Rc_util.Json.t
(** The whole segment as JSON — header fields plus one object per
    worker — the [rotary_cli top --json] document. *)
