(* A supervised worker process: the exec'd side of one supervisor
   socketpair (`rotary_cli serve-worker`, socketpair dup2'd to stdin).
   It owns a Scheduler (worker *domains* run the jobs — a fresh image,
   so domain creation here has none of the fork hazards) and an ECO
   Session store, and speaks the NDJSON protocol over the inherited fd,
   plus one control form:

     {"ctl": "drain"}   finish queued + running jobs, flush responses,
                        write a final shm row, _exit 0

   Every forwarded op becomes a scheduler job; a short-lived waiter
   *thread* per job blocks in Scheduler.await and writes the response,
   so responses interleave by completion order, matched to requests by
   the echoed "id".  The supervisor answers the synchronous ops itself.

   A heartbeat thread publishes liveness, scheduler counts, checkpoint
   file counters and the fixed solver-metric table into this slot's shm
   worker region every [heartbeat_interval_s].  Exit is always
   Unix._exit so the response fd is never double-flushed by at_exit
   machinery. *)

module Json = Rc_util.Json
module Timer = Rc_util.Timer
module Metrics = Rc_obs.Metrics

type t = {
  sched : Scheduler.t;
  sessions : Session.t;
  lock : Mutex.t;
  flushed : Condition.t;  (* signalled when in_flight drops *)
  mutable stop : bool;
  mutable in_flight : int;  (* submitted jobs whose response isn't written yet *)
}

let create ?workers ?max_pending ?session_capacity ~session_dir () =
  {
    sched = Scheduler.create ?workers ?max_pending ();
    sessions = Session.create ?capacity:session_capacity ~dir:session_dir ();
    lock = Mutex.create ();
    flushed = Condition.create ();
    stop = false;
    in_flight = 0;
  }

let sessions t = t.sessions
let stopping t = Mutex.protect t.lock (fun () -> t.stop)
let request_stop t = Mutex.protect t.lock (fun () -> t.stop <- true)

(* attach scheduler-side timing to a job's result document *)
let with_job_stats job_id (info : Scheduler.info) result =
  let stats =
    Json.Obj
      [
        ("id", Json.Int job_id);
        ("wait_s", Json.Float info.Scheduler.i_wait_s);
        ("run_s", Json.Float info.Scheduler.i_run_s);
      ]
  in
  match result with
  | Json.Obj fields -> Json.Obj (fields @ [ ("job", stats) ])
  | other -> Json.Obj [ ("result", other); ("job", stats) ]

let submit t ~respond (req : Protocol.request) work =
  let id = req.Protocol.req_id in
  match
    Scheduler.submit t.sched ~priority:req.Protocol.priority
      ?deadline_s:req.Protocol.deadline_s
      ~name:(Protocol.op_name req.Protocol.op)
      work
  with
  | Error reason -> respond (Protocol.response_error ~id reason)
  | Ok job_id ->
      Mutex.protect t.lock (fun () -> t.in_flight <- t.in_flight + 1);
      let waiter () =
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect t.lock (fun () ->
                t.in_flight <- t.in_flight - 1;
                Condition.broadcast t.flushed))
          (fun () ->
            match Scheduler.await t.sched job_id with
            | None -> respond (Protocol.response_error ~id "job vanished")
            | Some (Scheduler.Done result, info) ->
                respond (Protocol.response_ok ~id (with_job_stats job_id info result))
            | Some (Scheduler.Failed msg, _) ->
                respond (Protocol.response_error ~id ("job failed: " ^ msg))
            | Some (Scheduler.Cancelled reason, _) ->
                respond (Protocol.response_error ~id ("cancelled: " ^ reason)))
      in
      ignore (Thread.create waiter ())

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
  request_stop t;
  Scheduler.drain t.sched;
  Mutex.protect t.lock (fun () ->
      while t.in_flight > 0 do
        Condition.wait t.flushed t.lock
      done);
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

let worker_row ~started_ns ~requests ~responses ~core t : Shm.worker_row =
  let c = Scheduler.counts t.sched in
  let ckpt_saves, ckpt_skips = Checkpoint.save_counts () in
  {
    Shm.pid = Unix.getpid ();
    state = (if stopping t then Shm.W_draining else Shm.W_serving);
    started_ns;
    heartbeat_ns = Int64.to_int (Timer.now_ns ());
    requests = Atomic.get requests;
    responses = Atomic.get responses;
    submitted = c.Scheduler.submitted;
    completed = c.Scheduler.completed;
    failed = c.Scheduler.failed;
    cancelled = c.Scheduler.cancelled;
    rejected = c.Scheduler.rejected;
    queue_depth = c.Scheduler.pending;
    running = c.Scheduler.running;
    job_wall_ms = job_wall_ms ();
    core;
    shm_fallbacks = 0;
    ckpt_saves;
    ckpt_skips;
    solver = Metrics.export_values ();
  }

let run ?workers ?max_pending ?pin_core ?session_capacity ~session_dir ~shm ~slot ~restarts
    ~fd () =
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
  let core =
    match pin_core with
    | None -> -1
    | Some c -> (
        match Affinity.pin_self c with
        | Affinity.Pinned -> c mod Affinity.ncores ()
        | Affinity.Failed ->
            logf "rotary worker[%d]: sched_setaffinity(core %d) failed, running unpinned" slot c;
            -1
        | Affinity.Unsupported ->
            logf "rotary worker[%d]: CPU pinning unsupported on this platform" slot;
            -1)
  in
  let started_ns = Int64.to_int (Timer.now_ns ()) in
  let requests = Atomic.make 0 and responses = Atomic.make 0 in
  Shm.write_worker shm ~slot
    {
      Shm.empty_worker_row with
      Shm.pid = Unix.getpid ();
      state = Shm.W_starting;
      started_ns;
      heartbeat_ns = started_ns;
      core;
    };
  let t = create ?workers ?max_pending ?session_capacity ~session_dir () in
  let publish () =
    Shm.write_worker shm ~slot (worker_row ~started_ns ~requests ~responses ~core t)
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
  logf "rotary worker[%d]: up (pid %d, restarts %d%s)" slot (Unix.getpid ()) restarts
    (if core >= 0 then Printf.sprintf ", core %d" core else "");
  (try
     let rec loop () =
       match input_line ic with
       | line ->
           let line = String.trim line in
           (if line <> "" then
              match ctl_of line with
              | Some "drain" ->
                  logf "rotary worker[%d]: draining" slot;
                  request_stop t;
                  publish ()
              | Some _ -> ()
              | None ->
                  Atomic.incr requests;
                  handle_line t ~respond line);
           if stopping t then () else loop ()
       | exception End_of_file -> ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  drain t;
  Atomic.set stopped true;
  Thread.join hb;
  Shm.write_worker shm ~slot
    { (worker_row ~started_ns ~requests ~responses ~core t) with Shm.state = Shm.W_stopped };
  (try flush oc with Sys_error _ -> ());
  Unix._exit 0
