(* Prefork supervisor: the front of the two-tier process model.

   The supervisor is an I/O router.  It accepts client connections on a
   TCP front door and/or the Unix socket, speaks the NDJSON protocol,
   answers the synchronous ops itself, and forwards the rest over
   per-worker socketpairs to N worker processes, each running a Worker
   (scheduler domains + ECO session store).
   Holding the client connections here is what makes worker crashes
   invisible to clients: a SIGKILLed worker's in-flight jobs are
   re-dispatched to a sibling — flows resuming from their latest
   checkpoint — and the responses flow back on the original connection.

   Fork discipline (OCaml 5): workers are spawned fork+exec.  A forked
   child of a multithreaded runtime inherits every mutex in whatever
   state it was at the fork — a lock held by another thread stays
   locked forever, and the child's GC aborts the process the moment it
   finalizes such a mutex (mutex_free: EBUSY).  exec wipes all of that:
   between fork and execv the child performs only dup2/close/execv (no
   allocation, no GC), the socketpair rides in as the worker's stdin,
   and every supervisor-held fd is close-on-exec.  The fresh image runs
   `rotary_cli serve-worker`, which re-attaches the shm segment by path
   (MAP_SHARED on the same file: same physical pages).

   Request routing:
     flow/report/sweep/variation  -> a worker (least in-flight wins)
     checkpoint/status            -> answered inline
     restart                      -> rolling drain/respawn (--drain-restart)
     shutdown                     -> drain every worker, then exit

   Crash recovery: fresh flow requests get checkpointing injected
   (checkpoint_every into a private per-request directory) unless the
   client manages its own; on a worker death the supervisor re-dispatches
   that worker's in-flight jobs, rewriting injected flows to resume from
   their newest checkpoint.  Injected checkpoints never leak to the
   client: the response's "checkpoints" field is reset to [] and the
   directory is deleted once the response is delivered.  Non-flow jobs
   (and client-managed-checkpoint flows) re-run from scratch — every job
   body is deterministic.  A job is failed back to the client after
   [max_attempts] dispatches. *)

module Json = Rc_util.Json
module Timer = Rc_util.Timer

let max_attempts = 3

type config = {
  workers : int;
  sched_workers : int option;
  max_pending : int option;
  unix_path : string option;
  tcp : (string * int) option;
  shm_path : string;
  checkpoint_dir : string;
  checkpoint_every : int;
  drain_grace_s : float;
  allow_restart : bool;
  handle_signals : bool;
  exe : string option;  (* worker executable; default Sys.executable_name *)
  session_dir : string option;  (* shared ECO escrow dir; default checkpoint_dir/sessions *)
  session_capacity : int option;  (* resident sessions per worker *)
}

type wstate = Up | Draining | Down

let wstate_name = function Up -> "up" | Draining -> "draining" | Down -> "down"

type wrec = {
  slot : int;
  mutable pid : int;
  mutable fd : Unix.file_descr option;  (* parent end of the socketpair *)
  mutable oc : out_channel option;
  mutable state : wstate;
  mutable restarts : int;  (* completed respawns of this slot *)
  mutable gen : int;  (* bumped per spawn; guards the grace-kill timer *)
  mutable inflight : int;
  mutable redispatched : int;
  mutable resumed : int;
  mutable spawned_ns : int;
}

type pending = {
  p_sid : int;
  p_client_id : Json.t;
  p_respond : string -> unit;  (* writes one NDJSON response line *)
  mutable p_fields : (string * Json.t) list;  (* request fields, "id" = sid *)
  p_injected_dir : string option;  (* injected per-request checkpoint directory *)
  p_session : int option;  (* the ECO session a session_* op belongs to:
                              dispatch prefers the session's pinned worker *)
  p_session_close : bool;  (* a session_close: unpin on delivery *)
  mutable p_worker : int;  (* slot, or -1 while parked *)
  mutable p_attempts : int;
}

type event = Dead of int | Roll | Stop

type t = {
  cfg : config;
  shm : Shm.t;
  started : Timer.t;
  lock : Mutex.t;  (* workers, pendings, parked, roll, next_sid, stopping *)
  workers : wrec array;
  pendings : (int, pending) Hashtbl.t;
  parked : int Queue.t;
  (* sticky session→slot affinity (ECO edit traffic hits the worker
     holding the session resident) and the per-session edit sequence
     stamp; both under t.lock, cleared on close delivery, re-pinned
     after a worker death *)
  affinity : (int, int) Hashtbl.t;
  session_seqs : (int, int) Hashtbl.t;
  mutable next_sid : int;
  mutable stopping : bool;
  mutable roll : int list;  (* slots still to roll; the head is draining *)
  evq : event Queue.t;
  ev_lock : Mutex.t;
  ev_cond : Condition.t;
}

(* ---- small plumbing ---------------------------------------------------- *)

let push_event t e =
  Mutex.protect t.ev_lock (fun () ->
      Queue.push e t.evq;
      Condition.signal t.ev_cond)

let pop_event t =
  Mutex.protect t.ev_lock (fun () ->
      while Queue.is_empty t.evq do
        Condition.wait t.ev_cond t.ev_lock
      done;
      Queue.pop t.evq)

let remove_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        files;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* newest checkpoint in an injected per-request directory: files are
   name.iter-<k>.ckpt (Checkpoint.run_with_checkpoints), newest = max k *)
let latest_checkpoint dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | files ->
      let best = ref None in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".ckpt" then
            let stem = Filename.chop_suffix f ".ckpt" in
            match String.rindex_opt stem '-' with
            | None -> ()
            | Some i -> (
                match
                  int_of_string_opt
                    (String.sub stem (i + 1) (String.length stem - i - 1))
                with
                | None -> ()
                | Some k -> (
                    match !best with
                    | Some (bk, _) when bk >= k -> ()
                    | _ -> best := Some (k, Filename.concat dir f))))
        files;
      Option.map snd !best

let control_row_of (w : wrec) : Shm.control_row =
  {
    Shm.c_pid = w.pid;
    c_state =
      (match w.state with Up -> Shm.C_up | Draining -> Shm.C_draining | Down -> Shm.C_down);
    c_restarts = w.restarts;
    c_spawned_ns = w.spawned_ns;
    c_inflight = w.inflight;
    c_redispatched = w.redispatched;
    c_resumed = w.resumed;
  }

let publish_control t w = Shm.write_control t.shm ~slot:w.slot (control_row_of w)

(* write one line to a worker's socketpair; false = the worker is gone
   (its Dead event is already in flight and will re-dispatch) *)
let send_line w line =
  match w.oc with
  | None -> false
  | Some oc -> (
      try
        output_string oc line;
        output_char oc '\n';
        flush oc;
        true
      with Sys_error _ | Unix.Unix_error _ -> false)

let send_fields w fields = send_line w (Json.to_line (Json.Obj fields))

let send_ctl_drain w = ignore (send_fields w [ ("ctl", Json.String "drain") ])

(* ---- responses back to the client -------------------------------------- *)

let clear_checkpoints = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "checkpoints" then (k, Json.List []) else (k, v))
           fields)
  | other -> other

let rewrite_response p j =
  match j with
  | Json.Obj fields ->
      let fields =
        ("id", p.p_client_id) :: List.filter (fun (k, _) -> k <> "id") fields
      in
      let fields =
        match p.p_injected_dir with
        | None -> fields
        | Some _ ->
            List.map
              (fun (k, v) -> if k = "result" then (k, clear_checkpoints v) else (k, v))
              fields
      in
      Json.Obj fields
  | other -> other

(* the injected directory goes before the response does, so a client
   that has its answer never sees the directory again *)
let cleanup_injected p = Option.iter remove_dir p.p_injected_dir

let fail_pending p msg =
  cleanup_injected p;
  p.p_respond (Json.to_line (Protocol.response_error ~id:p.p_client_id msg))

(* a delivered session_close unpins its session.  NOT under t.lock
   (fail_pending runs under it; a leaked pin after a failed close is
   harmless — session ids are never reused) *)
let cleanup_session t p =
  if p.p_session_close then
    match p.p_session with
    | None -> ()
    | Some s ->
        Mutex.protect t.lock (fun () ->
            Hashtbl.remove t.affinity s;
            Hashtbl.remove t.session_seqs s)

(* ---- dispatch ----------------------------------------------------------- *)

let pick_worker t =
  Array.fold_left
    (fun best w ->
      if w.state <> Up then best
      else
        match best with
        | Some (b : wrec) when b.inflight <= w.inflight -> best
        | _ -> Some w)
    None t.workers

(* under t.lock: a session op goes to the worker holding the session
   resident; when that slot is not Up (crashed, draining) the session
   re-pins to the least-loaded sibling, which rehydrates the escrowed
   state on first touch *)
let pick_worker_for t p =
  match p.p_session with
  | None -> pick_worker t
  | Some s -> (
      match Hashtbl.find_opt t.affinity s with
      | Some slot when t.workers.(slot).state = Up -> Some t.workers.(slot)
      | _ -> (
          match pick_worker t with
          | Some w ->
              Hashtbl.replace t.affinity s w.slot;
              Some w
          | None -> None))

(* under t.lock *)
let dispatch_sid t sid =
  match Hashtbl.find_opt t.pendings sid with
  | None -> ()
  | Some p ->
      if t.stopping then (
        Hashtbl.remove t.pendings sid;
        fail_pending p "supervisor shutting down")
      else (
        match pick_worker_for t p with
        | Some w when send_fields w p.p_fields ->
            p.p_worker <- w.slot;
            w.inflight <- w.inflight + 1;
            publish_control t w
        | _ ->
            p.p_worker <- -1;
            Queue.push sid t.parked)

(* under t.lock *)
let unpark t =
  let sids = Queue.fold (fun acc sid -> sid :: acc) [] t.parked in
  Queue.clear t.parked;
  List.iter (dispatch_sid t) (List.rev sids)

(* ---- worker lifecycle --------------------------------------------------- *)

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let take_pending t sid =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.pendings sid with
      | None -> None
      | Some p ->
          Hashtbl.remove t.pendings sid;
          if p.p_worker >= 0 then (
            let w = t.workers.(p.p_worker) in
            w.inflight <- max 0 (w.inflight - 1);
            publish_control t w);
          Some p)

(* a finished job's response line from a worker: map the synthetic id
   back to the client's, normalise injected checkpoints, deliver *)
let deliver t line =
  if line <> "" then
    match Json.of_string line with
    | Error _ -> ()  (* not a response line; drop *)
    | Ok j -> (
        let sid =
          Option.value (Option.bind (Json.member "id" j) Json.to_int_opt) ~default:(-1)
        in
        match take_pending t sid with
        | None -> ()  (* stale response for a re-dispatched job *)
        | Some p ->
            cleanup_injected p;
            p.p_respond (Json.to_line (rewrite_response p j));
            cleanup_session t p)

(* per-worker reader thread: every line is a response *)
let rec reader_loop t slot ic =
  match input_line ic with
  | line ->
      deliver t (String.trim line);
      reader_loop t slot ic
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> push_event t (Dead slot)

let spawn t w =
  let parent_end, child_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec parent_end;
  let exe = Option.value t.cfg.exe ~default:Sys.executable_name in
  let argv =
    Array.of_list
      ([
         exe;
         "serve-worker";
         "--shm"; t.cfg.shm_path;
         "--slot"; string_of_int w.slot;
         "--restarts"; string_of_int w.restarts;
         "--workers"; string_of_int (Option.value t.cfg.sched_workers ~default:2);
         "--max-pending"; string_of_int (Option.value t.cfg.max_pending ~default:64);
         "--session-dir";
         Option.value t.cfg.session_dir
           ~default:(Filename.concat t.cfg.checkpoint_dir "sessions");
       ]
      @ (match t.cfg.session_capacity with
        | Some c -> [ "--session-capacity"; string_of_int c ]
        | None -> []))
  in
  (* create_process (posix_spawn underneath), not Unix.fork: the OCaml 5
     runtime refuses fork in any process that ever created a domain, and
     a raw fork of a multithreaded runtime would inherit locked mutexes
     anyway.  The spawned image is fresh; only child_end crosses over,
     as the worker's stdin (every other supervisor fd is cloexec). *)
  let pid = Unix.create_process exe argv child_end Unix.stdout Unix.stderr in
  (try Unix.close child_end with Unix.Unix_error _ -> ());
  w.pid <- pid;
  w.fd <- Some parent_end;
  w.oc <- Some (Unix.out_channel_of_descr parent_end);
  w.state <- Up;
  w.gen <- w.gen + 1;
  w.inflight <- 0;
  w.spawned_ns <- Int64.to_int (Timer.now_ns ());
  publish_control t w;
  let ic = Unix.in_channel_of_descr parent_end in
  ignore (Thread.create (fun () -> reader_loop t w.slot ic) ())

(* under t.lock: mark a worker draining, tell it, arm the grace kill *)
let start_drain t slot =
  let w = t.workers.(slot) in
  if w.state = Up then (
    w.state <- Draining;
    publish_control t w;
    send_ctl_drain w;
    let gen = w.gen and pid = w.pid in
    ignore
      (Thread.create
         (fun () ->
           Thread.delay t.cfg.drain_grace_s;
           Mutex.protect t.lock (fun () ->
               let w = t.workers.(slot) in
               if w.gen = gen && w.state = Draining && w.pid = pid then (
                 Printf.eprintf
                   "rotary supervisor: worker %d drain grace expired, killing\n%!" slot;
                 try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())))
         ()))

(* re-dispatch one job that was in flight on a crashed worker *)
let redispatch t crashed p =
  p.p_attempts <- p.p_attempts + 1;
  if p.p_attempts >= max_attempts then (
    Hashtbl.remove t.pendings p.p_sid;
    fail_pending p
      (Printf.sprintf "job failed after %d attempts (worker crashes)" p.p_attempts))
  else (
    crashed.redispatched <- crashed.redispatched + 1;
    (match Option.bind p.p_injected_dir latest_checkpoint with
    | Some path ->
        crashed.resumed <- crashed.resumed + 1;
        let keep = [ "priority"; "deadline_ms" ] in
        p.p_fields <-
          ("id", Json.Int p.p_sid)
          :: ("op", Json.String "flow")
          :: ("resume_from", Json.String path)
          :: List.filter (fun (k, _) -> List.mem k keep) p.p_fields
    | None -> ()  (* no checkpoint yet (or not a flow): re-run from scratch *));
    dispatch_sid t p.p_sid)

let handle_dead t slot =
  let pid = Mutex.protect t.lock (fun () -> t.workers.(slot).pid) in
  if pid > 0 then reap pid;
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(slot) in
      (match w.fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      w.fd <- None;
      w.oc <- None;
      let was_draining = w.state = Draining in
      let victims =
        Hashtbl.fold (fun _ p acc -> if p.p_worker = slot then p :: acc else acc)
          t.pendings []
      in
      List.iter (fun p -> p.p_worker <- -1) victims;
      (* sessions pinned to the dead slot re-pin on their next dispatch;
         the sibling rehydrates from the shared escrow directory *)
      Hashtbl.filter_map_inplace
        (fun _ s -> if s = slot then None else Some s)
        t.affinity;
      if t.stopping then (
        w.state <- Down;
        w.pid <- 0;
        publish_control t w;
        List.iter
          (fun p ->
            Hashtbl.remove t.pendings p.p_sid;
            fail_pending p "supervisor shutting down")
          victims)
      else (
        if not was_draining then
          Printf.eprintf "rotary supervisor: worker %d (pid %d) died, respawning\n%!"
            slot pid;
        w.restarts <- w.restarts + 1;
        spawn t w;
        (* dispatch order by sid = original submission order, so a
           session's redispatched edits reach the sibling in sequence *)
        let victims = List.sort (fun a b -> compare a.p_sid b.p_sid) victims in
        List.iter (fun p -> redispatch t w p) victims;
        unpark t;
        (* advance a rolling restart once its current slot has cycled *)
        match t.roll with
        | s :: rest when s = slot -> (
            t.roll <- rest;
            match rest with next :: _ -> start_drain t next | [] -> ())
        | _ -> ()))

let handle_roll t =
  Mutex.protect t.lock (fun () ->
      if (not t.stopping) && t.roll = [] then (
        t.roll <- List.init (Array.length t.workers) Fun.id;
        match t.roll with s :: _ -> start_drain t s | [] -> ()))

let all_down t =
  Mutex.protect t.lock (fun () ->
      t.stopping && Array.for_all (fun w -> w.state = Down) t.workers)

(* ---- client-facing side ------------------------------------------------- *)

let status_json t =
  let uptime = Timer.elapsed_s t.started in
  let rows = Shm.read_all t.shm in
  let sum f = Array.fold_left (fun acc r -> acc + f r.Shm.worker) 0 rows in
  let per_worker =
    Mutex.protect t.lock (fun () ->
        Array.to_list
          (Array.map
             (fun w ->
               Json.Obj
                 [
                   ("slot", Json.Int w.slot);
                   ("pid", Json.Int w.pid);
                   ("state", Json.String (wstate_name w.state));
                   ("restarts", Json.Int w.restarts);
                   ("inflight", Json.Int w.inflight);
                   ("redispatched", Json.Int w.redispatched);
                   ("resumed", Json.Int w.resumed);
                 ])
             t.workers))
  in
  Json.Obj
    [
      ("uptime_s", Json.Float uptime);
      ("draining", Json.Bool (Mutex.protect t.lock (fun () -> t.stopping)));
      ( "supervisor",
        Json.Obj
          [
            ("pid", Json.Int (Unix.getpid ()));
            ("workers", Json.Int (Array.length t.workers));
            ( "tcp_port",
              match Shm.tcp_port t.shm with Some p -> Json.Int p | None -> Json.Null );
            ("parked", Json.Int (Mutex.protect t.lock (fun () -> Queue.length t.parked)));
            ( "sessions_pinned",
              Json.Int (Mutex.protect t.lock (fun () -> Hashtbl.length t.affinity)) );
            ("per_worker", Json.List per_worker);
          ] );
      (* current-generation aggregate: a respawned worker's counters
         restart from zero (crash history lives in the control rows) *)
      ( "jobs",
        Json.Obj
          [
            ("submitted", Json.Int (sum (fun r -> r.Shm.submitted)));
            ("completed", Json.Int (sum (fun r -> r.Shm.completed)));
            ("failed", Json.Int (sum (fun r -> r.Shm.failed)));
            ("cancelled", Json.Int (sum (fun r -> r.Shm.cancelled)));
            ("rejected", Json.Int (sum (fun r -> r.Shm.rejected)));
            ("pending", Json.Int (sum (fun r -> r.Shm.queue_depth)));
            ("running", Json.Int (sum (fun r -> r.Shm.running)));
          ] );
    ]

let forward t ~respond_line ~(req : Protocol.request) line =
  let respond j = respond_line (Json.to_line j) in
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      let is_flow = match req.Protocol.op with Protocol.Flow_op _ -> true | _ -> false in
      let client_manages_checkpoints =
        List.exists
          (fun (k, _) -> k = "checkpoint_every" || k = "checkpoint_dir" || k = "resume_from")
          fields
      in
      Mutex.protect t.lock (fun () ->
          if t.stopping then respond (Protocol.response_error ~id:req.Protocol.req_id "supervisor shutting down")
          else (
            let sid = t.next_sid in
            t.next_sid <- sid + 1;
            let injected_dir =
              if is_flow && not client_manages_checkpoints then (
                let dir = Filename.concat t.cfg.checkpoint_dir (Printf.sprintf "sid%d" sid) in
                Checkpoint.mkdir_p dir;
                Some dir)
              else None
            in
            (* session ops: pin the dispatch to the session's worker and
               stamp cluster-unique identity.  An open without a client
               session id adopts its own dispatch sid (sids are unique
               across all ops, so the escrow key never collides); an
               edit without a sequence number gets the next one, making
               crash-redispatched batches deduplicable at the worker. *)
            let stamped, p_session, p_session_close =
              match req.Protocol.op with
              | Protocol.Session_open_op so ->
                  let s =
                    match so.Protocol.so_session with Some s -> s | None -> sid
                  in
                  ([ ("session", Json.Int s) ], Some s, false)
              | Protocol.Session_edit_op se ->
                  let s = se.Protocol.se_session in
                  let k =
                    match se.Protocol.se_seq with
                    | Some k ->
                        let cur =
                          Option.value (Hashtbl.find_opt t.session_seqs s) ~default:0
                        in
                        if k > cur then Hashtbl.replace t.session_seqs s k;
                        k
                    | None ->
                        let k =
                          1 + Option.value (Hashtbl.find_opt t.session_seqs s) ~default:0
                        in
                        Hashtbl.replace t.session_seqs s k;
                        k
                  in
                  ([ ("seq", Json.Int k) ], Some s, false)
              | Protocol.Session_query_op s -> ([], Some s, false)
              | Protocol.Session_close_op s -> ([], Some s, true)
              | _ -> ([], None, false)
            in
            let stamped_keys = List.map fst stamped in
            let fields =
              ("id", Json.Int sid)
              :: List.filter
                   (fun (k, _) -> k <> "id" && not (List.mem k stamped_keys))
                   fields
              @ stamped
              @
              match injected_dir with
              | None -> []
              | Some dir ->
                  [
                    ("checkpoint_every", Json.Int t.cfg.checkpoint_every);
                    ("checkpoint_dir", Json.String dir);
                  ]
            in
            let p =
              {
                p_sid = sid;
                p_client_id = req.Protocol.req_id;
                p_respond = respond_line;
                p_fields = fields;
                p_injected_dir = injected_dir;
                p_session;
                p_session_close;
                p_worker = -1;
                p_attempts = 0;
              }
            in
            Hashtbl.replace t.pendings sid p;
            dispatch_sid t sid))
  | Ok _ | Error _ ->
      (* parse_request accepted it, so this cannot happen *)
      respond (Protocol.response_error ~id:req.Protocol.req_id "malformed request")

let handle_client_line t ~respond_line line =
  let respond j = respond_line (Json.to_line j) in
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
          if not t.cfg.allow_restart then
            respond
              (Protocol.response_error ~id
                 "rolling restart disabled (start the supervisor with --drain-restart)")
          else (
            respond
              (Protocol.response_ok ~id
                 (Json.Obj
                    [
                      ("rolling", Json.Bool true);
                      ("workers", Json.Int (Array.length t.workers));
                    ]));
            push_event t Roll)
      | Protocol.Shutdown_op ->
          respond
            (Protocol.response_ok ~id (Json.Obj [ ("draining", Json.Bool true) ]));
          push_event t Stop
      | Protocol.Flow_op _ | Protocol.Report_op _ | Protocol.Sweep_op _
      | Protocol.Variation_op _ | Protocol.Session_open_op _
      | Protocol.Session_edit_op _ | Protocol.Session_query_op _
      | Protocol.Session_close_op _ ->
          forward t ~respond_line ~req line)

(* one client connection.  Every accepted request produces exactly one
   response; a client may shut down its write side and keep reading, so
   the fd stays open until this connection's outstanding responses are
   written.  A line past Protocol.max_line_bytes is answered with an
   error envelope and ends the connection the same way, so no client
   can grow the supervisor's buffer without bound *)
let serve_conn t fd =
  Unix.set_close_on_exec fd;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wlock = Mutex.create () in
  let clock = Mutex.create () in
  let ccond = Condition.create () in
  let outstanding = ref 0 in
  let respond_line line =
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect clock (fun () ->
            decr outstanding;
            Condition.broadcast ccond))
      (fun () ->
        try
          Mutex.protect wlock (fun () ->
              output_string oc line;
              output_char oc '\n';
              flush oc)
        with Sys_error _ | Unix.Unix_error _ -> ())
  in
  let accept () = Mutex.protect clock (fun () -> incr outstanding) in
  (try
     let rec loop () =
       match Protocol.read_line ic with
       | Protocol.Line line ->
           let line = String.trim line in
           if line <> "" then (
             accept ();
             handle_client_line t ~respond_line line);
           loop ()
       | Protocol.Too_long ->
           accept ();
           respond_line
             (Json.to_line
                (Protocol.response_error ~id:Json.Null
                   (Printf.sprintf "request line longer than %d bytes; closing the connection"
                      Protocol.max_line_bytes)))
       | Protocol.Eof -> ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.protect clock (fun () ->
      while !outstanding > 0 do
        Condition.wait ccond clock
      done);
  (* ic and oc share fd: closing both would close the descriptor twice,
     and the second close can land on a descriptor another connection or
     thread has just been given *)
  close_out_noerr oc

(* ---- listeners ---------------------------------------------------------- *)

let stopping t = Mutex.protect t.lock (fun () -> t.stopping)

let accept_loop t lfd =
  let rec loop () =
    if not (stopping t) then (
      match Unix.accept lfd with
      | cfd, _ ->
          if stopping t then (try Unix.close cfd with Unix.Unix_error _ -> ())
          else ignore (Thread.create (fun () -> serve_conn t cfd) ());
          loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ())
  in
  loop ()

(* wake blocked accepts: closing the fd from another thread does not
   reliably interrupt them, but a throw-away connection always does *)
let poke_listeners t =
  (match t.cfg.unix_path with
  | None -> ()
  | Some path -> (
      try
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> Unix.connect fd (Unix.ADDR_UNIX path))
      with Unix.Unix_error _ -> ()));
  match Shm.tcp_port t.shm with
  | None -> ()
  | Some port -> (
      try
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
      with Unix.Unix_error _ -> ())

let handle_stop t =
  Mutex.protect t.lock (fun () ->
      if not t.stopping then (
        t.stopping <- true;
        t.roll <- [];
        (* parked jobs have no worker to drain them *)
        Queue.iter
          (fun sid ->
            match Hashtbl.find_opt t.pendings sid with
            | None -> ()
            | Some p ->
                Hashtbl.remove t.pendings sid;
                fail_pending p "supervisor shutting down")
          t.parked;
        Queue.clear t.parked));
  poke_listeners t;
  Mutex.protect t.lock (fun () -> Array.iter (fun w -> start_drain t w.slot) t.workers)

(* ---- entry point -------------------------------------------------------- *)

(* SIGTERM and SIGINT drain and stop, SIGHUP rolls.  The three signals
   are blocked in every supervisor thread and consumed here: an OCaml
   handler runs only at a poll point, and an idle supervisor reaches
   none — its main thread waits on the event condition and every other
   thread sits in accept or read. *)
let signals = [ Sys.sigterm; Sys.sigint; Sys.sighup ]

let signal_loop t =
  while true do
    if Thread.wait_signal signals = Sys.sighup then (
      if t.cfg.allow_restart then push_event t Roll)
    else push_event t Stop
  done

let run cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* before any thread exists, so every supervisor thread inherits the
     mask and only [signal_loop] ever sees these signals *)
  if cfg.handle_signals then ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  Checkpoint.mkdir_p cfg.checkpoint_dir;
  Checkpoint.mkdir_p (Filename.dirname cfg.shm_path);
  let shm = Shm.create ~path:cfg.shm_path ~n_workers:cfg.workers () in
  let t =
    {
      cfg;
      shm;
      started = Timer.start ();
      lock = Mutex.create ();
      workers =
        Array.init cfg.workers (fun slot ->
            {
              slot;
              pid = 0;
              fd = None;
              oc = None;
              state = Down;
              restarts = 0;
              gen = 0;
              inflight = 0;
              redispatched = 0;
              resumed = 0;
              spawned_ns = 0;
            });
      pendings = Hashtbl.create 64;
      parked = Queue.create ();
      affinity = Hashtbl.create 16;
      session_seqs = Hashtbl.create 16;
      next_sid = 1;
      stopping = false;
      roll = [];
      evq = Queue.create ();
      ev_lock = Mutex.create ();
      ev_cond = Condition.create ();
    }
  in
  (* listeners first so every worker's fd snapshot includes them *)
  let unix_lfd =
    match cfg.unix_path with
    | None -> None
    | Some path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_close_on_exec fd;
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 1024;
        Some fd
  in
  let tcp_lfd =
    match cfg.tcp with
    | None -> None
    | Some (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_close_on_exec fd;
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        let addr =
          if host = "" || host = "*" then Unix.inet_addr_any
          else Unix.inet_addr_of_string host
        in
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 1024;
        (match Unix.getsockname fd with
        | Unix.ADDR_INET (_, actual) -> Shm.set_tcp_port shm actual
        | _ -> ());
        Some fd
  in
  Mutex.protect t.lock (fun () -> Array.iter (fun w -> spawn t w) t.workers);
  if cfg.handle_signals then ignore (Thread.create signal_loop t);
  Option.iter (fun fd -> ignore (Thread.create (fun () -> accept_loop t fd) ())) unix_lfd;
  Option.iter (fun fd -> ignore (Thread.create (fun () -> accept_loop t fd) ())) tcp_lfd;
  Printf.eprintf
    "rotary supervisor: %d worker processes, shm %s%s%s\n%!" cfg.workers cfg.shm_path
    (match cfg.unix_path with Some p -> ", unix " ^ p | None -> "")
    (match Shm.tcp_port shm with
    | Some p -> Printf.sprintf ", tcp :%d" p
    | None -> "");
  let rec loop () =
    (match pop_event t with
    | Dead slot -> handle_dead t slot
    | Roll -> handle_roll t
    | Stop -> handle_stop t);
    if not (all_down t) then loop ()
  in
  loop ();
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) unix_lfd;
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) tcp_lfd;
  (match cfg.unix_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ());
  (try Sys.remove cfg.shm_path with Sys_error _ -> ());
  Printf.eprintf "rotary supervisor: bye\n%!"
