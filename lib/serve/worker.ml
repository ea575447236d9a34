(* A supervised worker process: the exec'd side of one supervisor
   socketpair (`rotary_cli serve-worker`, socketpair dup2'd to stdin).
   It owns a Scheduler (worker *domains* run the jobs — a fresh image,
   so domain creation here has none of the fork hazards) and an ECO
   Session store, and speaks the NDJSON protocol over the inherited fd,
   plus one control form:

     {"ctl": "drain"}   finish queued + running jobs, flush responses,
                        write a final shm row, _exit 0

   Every forwarded op becomes a scheduler job whose on_done writes the
   response from the domain that ran it, so responses interleave by
   completion order, matched to requests by the echoed "id", and a
   drained scheduler has written every response.  The supervisor
   answers the synchronous ops itself.

   A heartbeat thread publishes liveness, scheduler counts, checkpoint
   file counters and the fixed solver-metric table into this slot's shm
   worker region every [heartbeat_interval_s].  Exit is always
   Unix._exit so the response fd is never double-flushed by at_exit
   machinery. *)

module Json = Rc_util.Json
module Timer = Rc_util.Timer
module Metrics = Rc_obs.Metrics

type t = { sched : Scheduler.t; sessions : Session.t; stop : bool Atomic.t }

let create ?workers ?max_pending ?session_capacity ~session_dir () =
  {
    sched = Scheduler.create ?workers ?max_pending ();
    sessions = Session.create ?capacity:session_capacity ~dir:session_dir ();
    stop = Atomic.make false;
  }

let sessions t = t.sessions

(* the response to a finished job, with the scheduler-side timing
   attached to its result document *)
let response ~id (f : Scheduler.finished) =
  match f.Scheduler.outcome with
  | Scheduler.Done result ->
      let stats =
        Json.Obj
          [
            ("id", Json.Int f.Scheduler.id);
            ("wait_s", Json.Float f.Scheduler.wait_s);
            ("run_s", Json.Float f.Scheduler.run_s);
          ]
      in
      let result =
        match result with
        | Json.Obj fields -> Json.Obj (fields @ [ ("job", stats) ])
        | other -> Json.Obj [ ("result", other); ("job", stats) ]
      in
      Protocol.response_ok ~id result
  | Scheduler.Failed msg -> Protocol.response_error ~id ("job failed: " ^ msg)
  | Scheduler.Cancelled reason -> Protocol.response_error ~id ("cancelled: " ^ reason)

let submit t ~respond (req : Protocol.request) work =
  let id = req.Protocol.req_id in
  match
    Scheduler.submit t.sched ~priority:req.Protocol.priority
      ?deadline_s:req.Protocol.deadline_s
      ~on_done:(fun f -> respond (response ~id f))
      work
  with
  | Ok () -> ()
  | Error reason -> respond (Protocol.response_error ~id reason)

let handle_line t ~respond line =
  match Protocol.parse_request line with
  | Error (id, op, msg) -> respond (Protocol.response_error ~id ?op msg)
  | Ok req -> (
      let op = req.Protocol.op in
      (* session ops get their job bodies from this worker's store,
         everything else from the stateless protocol layer *)
      let work =
        match Session.job_of_op t.sessions op with
        | Some work -> Some work
        | None -> Protocol.job_of_op op
      in
      match work with
      | Some work -> submit t ~respond req work
      | None ->
          let name = Protocol.op_name op in
          respond
            (Protocol.response_error ~id:req.Protocol.req_id ~op:name
               (name ^ " is answered by the supervisor, not a worker")))

let drain t =
  Atomic.set t.stop true;
  Scheduler.shutdown t.sched

(* ---- the worker process ------------------------------------------------ *)

let heartbeat_interval_s = 0.05

(* stderr via Unix.write: no channel locks, safe post-fork *)
let logf fmt =
  Printf.ksprintf
    (fun s ->
      let line = s ^ "\n" in
      ignore (Unix.write_substring Unix.stderr line 0 (String.length line)))
    fmt

let job_wall_ms () =
  match Metrics.value_of "serve.job.wall" with
  | Some (Metrics.Timer { total_s; _ }) ->
      int_of_float (Float.round (total_s *. 1000.0))
  | _ -> 0

let worker_row ~started_ns ~requests ~responses t : Shm.worker_row =
  let { Scheduler.submitted; completed; failed; cancelled; rejected; pending; running } =
    Scheduler.counts t.sched
  in
  let ckpt_saves, ckpt_skips = Checkpoint.save_counts () in
  {
    Shm.pid = Unix.getpid ();
    state = (if Atomic.get t.stop then Shm.W_draining else Shm.W_serving);
    started_ns;
    heartbeat_ns = Int64.to_int (Timer.now_ns ());
    requests = Atomic.get requests;
    responses = Atomic.get responses;
    submitted;
    completed;
    failed;
    cancelled;
    rejected;
    queue_depth = pending;
    running;
    job_wall_ms = job_wall_ms ();
    shm_fallbacks = 0;
    ckpt_saves;
    ckpt_skips;
    solver = Metrics.export_values ();
  }

let run ?workers ?max_pending ?session_capacity ~session_dir ~shm ~slot ~restarts ~fd () =
  (* the supervisor spawns workers from a thread that blocks SIGTERM,
     SIGINT and SIGHUP (its signal thread consumes them), and exec keeps
     a blocked mask: clear it before anything else, so no signal stays
     blocked in a worker or the domains and threads it starts *)
  ignore (Thread.sigmask Unix.SIG_SETMASK []);
  (* the supervisor owns signal policy; a worker dies by drain ctl,
     socket EOF, or SIGKILL — a ^C on the supervisor's terminal must
     not take the workers down before they can drain *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sighup Sys.Signal_ignore with Invalid_argument _ -> ());
  (* the export table this worker publishes into its shm row is only
     live if the registry records; recording is sharded per domain and
     contention-free, so a dedicated worker always pays it *)
  Metrics.set_enabled true;
  let started_ns = Int64.to_int (Timer.now_ns ()) in
  let requests = Atomic.make 0 and responses = Atomic.make 0 in
  Shm.write_worker shm ~slot
    {
      Shm.empty_worker_row with
      Shm.pid = Unix.getpid ();
      state = Shm.W_starting;
      started_ns;
      heartbeat_ns = started_ns;
    };
  let t = create ?workers ?max_pending ?session_capacity ~session_dir () in
  let publish () =
    Shm.write_worker shm ~slot (worker_row ~started_ns ~requests ~responses t)
  in
  let stopped = Atomic.make false in
  let heartbeat () =
    while not (Atomic.get stopped) do
      publish ();
      Thread.delay heartbeat_interval_s
    done
  in
  let hb = Thread.create heartbeat () in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wlock = Mutex.create () in
  let write_line line =
    Mutex.protect wlock (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  in
  let respond j =
    try
      write_line (Json.to_line j);
      Atomic.incr responses
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  let ctl_of line =
    match Json.of_string line with
    | Ok j -> Option.bind (Json.member "ctl" j) Json.to_string_opt
    | Error _ -> None
  in
  logf "rotary worker[%d]: up (pid %d, restarts %d)" slot (Unix.getpid ()) restarts;
  (try
     let rec loop () =
       match input_line ic with
       | line ->
           let line = String.trim line in
           (if line <> "" then
              match ctl_of line with
              | Some "drain" ->
                  logf "rotary worker[%d]: draining" slot;
                  Atomic.set t.stop true;
                  publish ()
              | Some _ -> ()
              | None ->
                  Atomic.incr requests;
                  handle_line t ~respond line);
           if Atomic.get t.stop then () else loop ()
       | exception End_of_file -> ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  drain t;
  Atomic.set stopped true;
  Thread.join hb;
  Shm.write_worker shm ~slot
    { (worker_row ~started_ns ~requests ~responses t) with Shm.state = Shm.W_stopped };
  (try flush oc with Sys_error _ -> ());
  Unix._exit 0
