(** Concurrent request server speaking the {!Protocol} over a
    Unix-domain socket or stdio.

    The scheduler's worker {e domains} run the jobs; the server's
    {e threads} do I/O — one reader per connection plus one short-lived
    waiter per async job, writing its response under the connection's
    write mutex.  Responses interleave by completion order and are
    matched to requests by the echoed ["id"].

    Graceful drain — on SIGTERM, SIGINT, or the ["shutdown"] op — stops
    accepting connections and jobs, finishes every queued and running
    job, flushes every in-flight response, then returns.  A hard kill
    instead is what {!Checkpoint} recovery is for. *)

type t

type identity = { worker_id : int; restarts : int }
(** Who this server is within a multi-process tier: the {!Supervisor}
    spawns each worker with its slot id and restart generation, and the
    [status] op reports them so operators can tell which worker
    answered.  Defaults to [{worker_id = 0; restarts = 0}] for the
    single-process tier. *)

val create :
  ?workers:int ->
  ?max_pending:int ->
  ?identity:identity ->
  ?session_capacity:int ->
  ?session_dir:string ->
  unit ->
  t
(** A server with its own {!Scheduler} ([workers] domains, bounded
    queue of [max_pending]) and its own {!Session} store for the online
    ECO ops ([session_capacity] resident sessions, escrowed as files
    under [session_dir], defaulting to a per-process temp directory).
    Exposed for in-process tests; the entry points below call it
    themselves. *)

val scheduler : t -> Scheduler.t
(** The server's scheduler — the {!Worker} heartbeat reads its counts
    into the shared-memory segment. *)

val sessions : t -> Session.t
(** The server's ECO session store. *)

val handle_line : t -> respond:(Rc_util.Json.t -> unit) -> string -> unit
(** Dispatch one request line.  [respond] is invoked exactly once per
    line — synchronously for [checkpoint]/[status]/[shutdown] and
    parse errors, from a waiter thread for async ops — so it must be
    thread-safe. *)

val status_json : t -> Rc_util.Json.t
(** The [status] result document: uptime, worker count, queue counts,
    completed-job latency percentiles, throughput. *)

val request_stop : t -> unit
(** Begin draining: idempotent, callable from signal handlers. *)

val stopping : t -> bool

val drain : t -> unit
(** Stop admitting, wait for all jobs and in-flight responses, shut the
    scheduler down. *)

val run_unix :
  ?workers:int ->
  ?max_pending:int ->
  ?session_capacity:int ->
  ?session_dir:string ->
  path:string ->
  unit ->
  unit
(** Listen on a Unix-domain socket at [path] (an existing socket file
    is replaced) and serve until drained. *)

val run_stdio :
  ?workers:int ->
  ?max_pending:int ->
  ?session_capacity:int ->
  ?session_dir:string ->
  unit ->
  unit
(** Serve newline-delimited requests from stdin, responses to stdout,
    until EOF or shutdown. *)
