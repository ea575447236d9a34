(* A supervised worker process: the exec'd side of one supervisor
   socketpair (`rotary_cli serve-worker`, socketpair dup2'd to stdin).
   Runs a full Server/Scheduler internally — a fresh image, so domain
   creation here has none of the fork hazards — and speaks the same
   NDJSON protocol over the inherited fd, plus one control form:

     {"ctl": "drain"}   finish queued + running jobs, flush responses,
                        write a final shm row, _exit 0

   A heartbeat thread publishes liveness, scheduler counts, checkpoint
   file counters and the fixed solver-metric table into this slot's shm
   worker region every [heartbeat_interval_s].  Exit is always
   Unix._exit so the response fd is never double-flushed by at_exit
   machinery. *)

module Json = Rc_util.Json
module Timer = Rc_util.Timer
module Metrics = Rc_obs.Metrics

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

let worker_row ~started_ns ~requests ~responses ~core srv : Shm.worker_row =
  let c = Scheduler.counts (Server.scheduler srv) in
  let ckpt_saves, ckpt_skips = Checkpoint.save_counts () in
  {
    Shm.pid = Unix.getpid ();
    state = (if Server.stopping srv then Shm.W_draining else Shm.W_serving);
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

let run ?workers ?max_pending ?pin_core ?session_capacity ?session_dir ~shm ~slot ~restarts
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
  (* ECO session escrow: every worker shares [session_dir] so a sibling
     can rehydrate a crashed worker's sessions *)
  let srv =
    Server.create ?workers ?max_pending
      ~identity:{ Server.worker_id = slot; restarts }
      ?session_capacity
      ~session_dir:
        (match session_dir with
        | Some d -> d
        | None -> Filename.concat (Filename.get_temp_dir_name ()) "rotary-eco")
      ()
  in
  let publish () =
    Shm.write_worker shm ~slot (worker_row ~started_ns ~requests ~responses ~core srv)
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
  let handle_line line =
    Atomic.incr requests;
    Server.handle_line srv ~respond line
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
                  Server.request_stop srv;
                  publish ()
              | Some _ -> ()
              | None -> handle_line line);
           if Server.stopping srv then () else loop ()
       | exception End_of_file -> ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  Server.drain srv;
  Atomic.set stopped true;
  Thread.join hb;
  Shm.write_worker shm ~slot
    { (worker_row ~started_ns ~requests ~responses ~core srv) with Shm.state = Shm.W_stopped };
  (try flush oc with Sys_error _ -> ());
  Unix._exit 0
