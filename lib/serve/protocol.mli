(** The serve wire protocol: line-delimited JSON requests/responses and
    the job bodies they dispatch to.

    One request per line; the service replies with one line per request,
    matched by the echoed ["id"] field — responses may arrive out of
    request order.  Envelope:

    {v
    request:   {"id": any, "op": str, "priority"?: int,
                "deadline_ms"?: num, ...op fields}
    response:  {"id": any, "ok": true,  "result": {...}}
             | {"id": any, "ok": false, "error": "reason"}
    v}

    Heavy ops ([flow], [report], [sweep], [variation] and the session
    ops) become {!Scheduler} jobs on a {!Worker}; [checkpoint] (header
    inspection), [status], [restart] and [shutdown] are answered inline
    by the {!Supervisor}.  Checkpoint payloads never cross
    the socket — requests carry file paths.  See [docs/serving.md] for
    the full field reference. *)

open Rc_core

type flow_request = {
  f_bench : Bench_suite.bench;
  f_mode : Flow.mode;
  f_max_iterations : int option;  (** [>= 0]; [0] runs the prologue only. *)
  f_checkpoint_every : int option;  (** [None] = no checkpointing. *)
  f_checkpoint_dir : string option;
  f_resume_from : string option;
      (** Checkpoint path; when set the other flow fields are ignored
          (the checkpoint embeds its config). *)
}

type report_request = { r_benches : Bench_suite.bench list; r_timings : bool }

type sweep_request = {
  s_bench : Bench_suite.bench;
  s_grids : int list;
      (** 1 to 16 grids, each in [1 .. 64]: a [g] grid builds [g²]
          rings, and size1m's 50 is the largest shipped grid. *)
}

type variation_request = { v_bench : Bench_suite.bench; v_mode : Flow.mode }

type session_open_request = {
  so_flow : flow_request;
      (** The flow that seeds the session (fresh run or [resume_from]);
          its checkpointing fields are ignored — the session store
          escrows its own state. *)
  so_session : int option;
      (** Session id.  The supervisor stamps its dispatch sid here so
          ids are cluster-unique; a {!Session} store driven without one
          assigns its own. *)
}

type session_edit_request = {
  se_session : int;
  se_seq : int option;
      (** 1-based applied-batch sequence number, stamped by the
          supervisor: a crash-redispatched edit whose batch already
          landed is deduplicated instead of applied twice. *)
  se_edits : Flow.edit list;
}

type op =
  | Flow_op of flow_request
  | Report_op of report_request
  | Sweep_op of sweep_request
  | Variation_op of variation_request
  | Session_open_op of session_open_request
  | Session_edit_op of session_edit_request
  | Session_query_op of int  (** Session id. *)
  | Session_close_op of int  (** Session id. *)
  | Checkpoint_op of string  (** Inspect this checkpoint file's header. *)
  | Status_op
  | Restart_op
      (** Rolling worker restart — the supervisor accepts it only when
          started with [--drain-restart]. *)
  | Shutdown_op

type request = {
  req_id : Rc_util.Json.t;  (** Echoed back; [Null] when absent. *)
  priority : int;  (** Default 0; higher runs first. *)
  deadline_s : float option;  (** From ["deadline_ms"] ([> 0]), converted to s. *)
  op : op;
}

val parse_request :
  string -> (request, Rc_util.Json.t * string option * string) result
(** Parse one request line.  Errors carry the request id (if one could
    be recovered) so the service can still address its error response,
    and the offending op name (when the request named one) so the error
    envelope echoes which op was rejected.  Every field is checked at
    parse time: a wrongly typed or out-of-range ["priority"],
    ["deadline_ms"], ["max_iterations"] or ["grids"] is an error naming
    the field, never a silent default.  Unknown fields are ignored. *)

val max_line_bytes : int
(** The longest client request line the front door reads, newline
    excluded: 1 MiB.  Worker lines need no bound of their own, since
    they are forwarded from bounded client lines. *)

type line = Line of string | Too_long | Eof

val read_line : in_channel -> line
(** [input_line] bounded by {!max_line_bytes}: [Too_long] as soon as a
    line runs past the bound, with the rest of it left unread.  A last
    line without a newline is returned as a [Line]. *)

val response_ok : id:Rc_util.Json.t -> Rc_util.Json.t -> Rc_util.Json.t

val response_error : id:Rc_util.Json.t -> ?op:string -> string -> Rc_util.Json.t
(** The error envelope; [op] adds an ["op"] field naming the rejected
    operation. *)

val json_of_snapshot : Flow.snapshot -> Rc_util.Json.t

val job_of_op : op -> (Cancel.t -> Rc_util.Json.t) option
(** The scheduler job body for an async op ([Some]), or [None] for the
    ops the supervisor answers inline ([checkpoint], [status],
    [restart], [shutdown]) and for the session ops (whose job bodies
    come from the worker's {!Session} store).  Flow jobs poll their token at every
    stage boundary via {!Rc_core.Flow.run}'s [guard]. *)

val guard_of : Cancel.t -> Flow_ctx.t -> unit
(** The flow cooperative-cancellation hook: polls the token at every
    stage boundary. *)

val outcome_of_flow_request : flow_request -> Cancel.t -> Flow.outcome
(** Run (or resume) the flow a [session_open] seeds a session with,
    ignoring the request's checkpointing fields.
    @raise Failure when a [resume_from] checkpoint fails to load. *)

val inspect_checkpoint : string -> (Rc_util.Json.t, string) result

val op_name : op -> string
(** The op's wire name, e.g. ["flow"], as an error envelope echoes
    it. *)
