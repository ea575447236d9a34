(* Concurrent request server over a Unix-domain socket or stdio.

   Threading model: the scheduler owns worker *domains* (cross-job
   parallelism); the server uses lightweight *threads* for I/O — one
   reader thread per connection plus one short-lived waiter thread per
   async job, which blocks in Scheduler.await and writes the response
   under the connection's write mutex.  Responses therefore interleave
   by completion order, matched to requests by the echoed "id".

   Graceful drain (SIGTERM, SIGINT, or the "shutdown" op): stop
   accepting connections and jobs, let queued and running jobs finish,
   flush every in-flight response, then return.  kill -9 is the
   non-graceful path the checkpoint subsystem exists for. *)

module Json = Rc_util.Json
module Timer = Rc_util.Timer

(* who this server is within a multi-process tier: the supervisor spawns
   each worker with its slot id and restart generation, and the status
   op reports them so operators can tell which worker answered *)
type identity = { worker_id : int; restarts : int }

type t = {
  sched : Scheduler.t;
  identity : identity;
  sessions : Session.t;
  lock : Mutex.t;
  flushed : Condition.t;  (* signalled when in_flight drops *)
  mutable stop : bool;
  mutable in_flight : int;  (* submitted jobs whose response isn't written yet *)
  mutable sock_path : string option;  (* set in run_unix; used to wake accept *)
  started_s : float;  (* monotonic *)
}

let create ?workers ?max_pending ?(identity = { worker_id = 0; restarts = 0 })
    ?session_capacity ?session_dir () =
  let dir =
    match session_dir with
    | Some d -> d
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "rotary-eco-%d" (Unix.getpid ()))
  in
  {
    sched = Scheduler.create ?workers ?max_pending ();
    identity;
    sessions = Session.create ?capacity:session_capacity ~dir ();
    lock = Mutex.create ();
    flushed = Condition.create ();
    stop = false;
    in_flight = 0;
    sock_path = None;
    started_s = Timer.now_s ();
  }

let scheduler t = t.sched
let sessions t = t.sessions

let stopping t = Mutex.protect t.lock (fun () -> t.stop)

(* Wake a blocked accept: closing the fd from another thread does not
   reliably interrupt it, but a throw-away connection always does. *)
let poke_listener t =
  match Mutex.protect t.lock (fun () -> t.sock_path) with
  | None -> ()
  | Some path -> (
      try
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> Unix.connect fd (Unix.ADDR_UNIX path))
      with Unix.Unix_error _ -> ())

let request_stop t =
  let fresh = Mutex.protect t.lock (fun () ->
      let fresh = not t.stop in
      t.stop <- true;
      fresh)
  in
  if fresh then poke_listener t

let status_json t =
  let c = Scheduler.counts t.sched in
  let pcts =
    Scheduler.latency_percentiles t.sched ~percentiles:[ 0.5; 0.9; 0.95; 0.99 ]
  in
  let uptime = Timer.now_s () -. t.started_s in
  Json.Obj
    [
      ("uptime_s", Json.Float uptime);
      ("workers", Json.Int (Scheduler.n_workers t.sched));
      ("draining", Json.Bool (stopping t));
      ( "worker",
        Json.Obj
          [
            ("id", Json.Int t.identity.worker_id);
            ("restarts", Json.Int t.identity.restarts);
            ("draining", Json.Bool (stopping t));
          ] );
      ( "jobs",
        Json.Obj
          [
            ("submitted", Json.Int c.Scheduler.submitted);
            ("rejected", Json.Int c.Scheduler.rejected);
            ("completed", Json.Int c.Scheduler.completed);
            ("failed", Json.Int c.Scheduler.failed);
            ("cancelled", Json.Int c.Scheduler.cancelled);
            ("pending", Json.Int c.Scheduler.pending);
            ("running", Json.Int c.Scheduler.running);
          ] );
      ( "latency_s",
        Json.Obj
          (List.map
             (fun (p, v) -> (Printf.sprintf "p%g" (p *. 100.0), Json.Float v))
             pcts) );
      ( "throughput_per_s",
        Json.Float
          (if uptime > 0.0 then float_of_int c.Scheduler.completed /. uptime else 0.0) );
      ( "sessions",
        let resident, known = Session.counts t.sessions in
        Json.Obj [ ("resident", Json.Int resident); ("known", Json.Int known) ]
      );
    ]

(* attach scheduler-side timing to a job's result document *)
let with_job_stats job_id (info : Scheduler.info option) result =
  let stats =
    Json.Obj
      (("id", Json.Int job_id)
      ::
      (match info with
      | None -> []
      | Some i ->
          [
            ("wait_s", Json.Float i.Scheduler.i_wait_s);
            ("run_s", Json.Float i.Scheduler.i_run_s);
          ]))
  in
  match result with
  | Json.Obj fields -> Json.Obj (fields @ [ ("job", stats) ])
  | other -> Json.Obj [ ("result", other); ("job", stats) ]

let handle_async t ~respond (req : Protocol.request) work =
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
            | Some (outcome, info) -> (
                match outcome with
                | Scheduler.Done result ->
                    respond
                      (Protocol.response_ok ~id
                         (with_job_stats job_id (Some info) result))
                | Scheduler.Failed msg ->
                    respond (Protocol.response_error ~id ("job failed: " ^ msg))
                | Scheduler.Cancelled reason ->
                    respond (Protocol.response_error ~id ("cancelled: " ^ reason))))
      in
      ignore (Thread.create waiter ())

let handle_line t ~respond line =
  match Protocol.parse_request line with
  | Error (id, op, msg) -> respond (Protocol.response_error ~id ?op msg)
  | Ok req -> (
      let id = req.Protocol.req_id in
      match req.Protocol.op with
      | Protocol.Checkpoint_op path -> (
          match Protocol.inspect_checkpoint path with
          | Ok meta -> respond (Protocol.response_ok ~id meta)
          | Error e -> respond (Protocol.response_error ~id e))
      | Protocol.Status_op -> respond (Protocol.response_ok ~id (status_json t))
      | Protocol.Restart_op ->
          (* meaningful only for the multi-process tier; the supervisor
             intercepts it before a worker ever sees the line *)
          respond
            (Protocol.response_error ~id
               "rolling restart needs the multi-process tier (rotary_cli serve \
                --workers-proc N --drain-restart)")
      | Protocol.Shutdown_op ->
          respond
            (Protocol.response_ok ~id (Json.Obj [ ("draining", Json.Bool true) ]));
          request_stop t
      | op -> (
          (* session ops get their job bodies from this server's store;
             everything else from the stateless protocol layer *)
          match Session.job_of_op t.sessions op with
          | Some work -> handle_async t ~respond req work
          | None -> (
              match Protocol.job_of_op op with
              | Some work -> handle_async t ~respond req work
              | None -> (* unreachable: sync ops matched above *) assert false)))

let drain t =
  request_stop t;
  Scheduler.drain t.sched;
  Mutex.protect t.lock (fun () ->
      while t.in_flight > 0 do
        Condition.wait t.flushed t.lock
      done);
  Scheduler.shutdown t.sched

let install_signal_handlers t =
  (* a dead client must raise EPIPE at the write, not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop _ = request_stop t in
  try
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
  with Invalid_argument _ -> ()

(* ---- connection I/O ---------------------------------------------------- *)

let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wlock = Mutex.create () in
  (* every handled request produces exactly one response; a client may
     shut down its write side and keep reading, so the fd must stay
     open until this connection's outstanding responses are written *)
  let clock = Mutex.create () in
  let ccond = Condition.create () in
  let outstanding = ref 0 in
  let respond j =
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect clock (fun () ->
            decr outstanding;
            Condition.broadcast ccond))
      (fun () ->
        try
          Mutex.protect wlock (fun () ->
              output_string oc (Json.to_line j);
              output_char oc '\n';
              flush oc)
        with Sys_error _ | Unix.Unix_error _ -> ()  (* client went away *))
  in
  (try
     let rec loop () =
       match input_line ic with
       | line ->
           let line = String.trim line in
           if line <> "" then (
             Mutex.protect clock (fun () -> incr outstanding);
             handle_line t ~respond line);
           loop ()
       | exception End_of_file -> ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.protect clock (fun () ->
      while !outstanding > 0 do
        Condition.wait ccond clock
      done);
  (* close_out flushes and closes the shared fd; close_in then finds it
     closed, which close_in_noerr swallows *)
  close_out_noerr oc;
  close_in_noerr ic

let run_unix ?workers ?max_pending ?session_capacity ?session_dir ~path () =
  let t = create ?workers ?max_pending ?session_capacity ?session_dir () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Mutex.protect t.lock (fun () -> t.sock_path <- Some path);
  install_signal_handlers t;
  Printf.eprintf "rotary serve: listening on %s (%d workers)\n%!" path
    (Scheduler.n_workers t.sched);
  let rec accept_loop () =
    if not (stopping t) then (
      match Unix.accept fd with
      | cfd, _ ->
          if stopping t then (try Unix.close cfd with Unix.Unix_error _ -> ())
          else ignore (Thread.create (fun () -> serve_connection t cfd) ());
          accept_loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ())
  in
  accept_loop ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Printf.eprintf "rotary serve: draining\n%!";
  drain t;
  Printf.eprintf "rotary serve: bye\n%!"

let run_stdio ?workers ?max_pending ?session_capacity ?session_dir () =
  let t = create ?workers ?max_pending ?session_capacity ?session_dir () in
  install_signal_handlers t;
  let wlock = Mutex.create () in
  let respond j =
    try
      Mutex.protect wlock (fun () ->
          output_string stdout (Json.to_line j);
          output_char stdout '\n';
          flush stdout)
    with Sys_error _ -> ()
  in
  (try
     let rec loop () =
       if not (stopping t) then (
         match input_line stdin with
         | line ->
             let line = String.trim line in
             if line <> "" then handle_line t ~respond line;
             loop ()
         | exception End_of_file -> ())
     in
     loop ()
   with Sys_error _ -> ());
  drain t
