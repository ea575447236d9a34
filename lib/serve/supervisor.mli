(** Prefork supervisor: the front of the two-tier process model.

    An I/O router that accepts client connections on a TCP front door
    and/or the Unix socket, forwards heavy protocol ops over per-worker
    socketpairs to [workers] {!Worker} processes, and restarts crashed
    workers — their in-flight flows resume from the
    supervisor-injected checkpoints on a sibling, bit-identical
    ({!Checkpoint}'s digest guarantee) to an uninterrupted run.  Every
    worker exports liveness and counters through the {!Shm} segment at
    [shm_path]; the supervisor writes each slot's control region
    (up/draining/down, restart count, dispatch counters).

    Inline ops: [status] (supervisor + per-worker aggregate), [restart]
    (rolling drain/respawn of one worker at a time, gated by
    [allow_restart]; also SIGHUP), [shutdown] and [checkpoint].

    Spawn discipline: workers are spawned with [Unix.create_process]
    (posix_spawn underneath) — a fresh [rotary_cli serve-worker] image
    that inherits no runtime state, with the socketpair as the worker's
    stdin and all supervisor fds close-on-exec.  See
    [docs/operations.md]. *)

type config = {
  workers : int;  (** Worker processes (slots). *)
  sched_workers : int option;  (** Scheduler domains per worker. *)
  max_pending : int option;  (** Queue bound per worker. *)
  unix_path : string option;  (** Unix-domain listener path. *)
  tcp : (string * int) option;
      (** TCP listener as [(host, port)]; ["" ] or ["*"] binds all
          interfaces, port [0] picks an ephemeral port (readable back
          via {!Shm.tcp_port}). *)
  shm_path : string;  (** Counter segment file, created afresh ({!Shm.create}). *)
  checkpoint_dir : string;
      (** Base directory for supervisor-injected per-request checkpoint
          directories ([sid<N>], deleted once the response is
          delivered). *)
  checkpoint_every : int;
      (** Injected [checkpoint_every] for fresh client flows that do
          not manage their own checkpointing. *)
  drain_grace_s : float;
      (** Rolling restart / shutdown: seconds a draining worker gets
          before SIGKILL (crash recovery then resumes its jobs). *)
  allow_restart : bool;  (** Accept the [restart] op and SIGHUP. *)
  handle_signals : bool;
      (** Block SIGTERM/SIGINT (shutdown) and SIGHUP (roll) in every
          supervisor thread and consume them in a thread that waits for
          them; for a process that runs one supervisor from its main
          thread, off for in-process tests. *)
  exe : string option;
      (** Worker executable, exec'd as [EXE serve-worker --slot ...];
          defaults to [Sys.executable_name].  Embedders whose binary is
          not [rotary_cli] (e.g. the test runner) must point this at
          one that is. *)
  session_dir : string option;
      (** ECO session escrow directory, shared by every worker so a
          sibling can rehydrate a crashed worker's sessions; defaults
          to [checkpoint_dir/sessions]. *)
  session_capacity : int option;
      (** Resident-session LRU capacity per worker ({!Session}). *)
}

val run : config -> unit
(** Serve until a [shutdown] op or signal has drained every worker.
    Removes the socket and shm files on the way out.  Safe to call
    from any process and any thread — workers are spawned with
    [Unix.create_process] (posix_spawn underneath), which neither runs
    inherited runtime state in the child nor trips the OCaml 5 rule
    that [Unix.fork] is unavailable once a domain has been created. *)
