(* serve_mixed: `rotary_cli serve --workers-proc 2 --workers 1
   --transport shm`, driven by this process over two closed-loop
   connections.  Connection A alternates a `flow` on tiny with a
   `status`; connection B holds one s9234 ECO session open and
   alternates a seeded `session_edit` batch with a `session_query`.
   Reads and writes share the same two workers, so the front door,
   dispatch, ring transport, scheduler, session store and checkpoint
   escrow all carry load while the solvers see small inputs. *)

open Rc_core
module Json = Rc_util.Json
module Shm = Rc_serve.Shm
module M = Measure

let ready_timeout_s = 30.0
let shutdown_timeout_s = 15.0
let reply_timeout_s = 60.0

(* Supervisor start-up is the set-up; it is repeated so that set-up
   time is a median too (seven times: one start takes ~25 ms, and its
   run-to-run spread is wide). *)
let setup_reps = 7

(* ---- one blocking client connection ---- *)

type conn = { fd : Unix.file_descr; ic : in_channel; mutable next_id : int }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
  { fd; ic = Unix.in_channel_of_descr fd; next_id = 1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type reply = { ok : bool; result : Json.t; error : string; rt : float; line : string }

(* One round trip: write the request line, then read lines until the one
   echoing this id.  [rt] runs from just before the write to the reply's
   arrival.  A timeout or a closed connection is a failed reply. *)
let call c body =
  let id = c.next_id in
  c.next_id <- id + 1;
  let line = Json.to_line (Json.Obj (("id", Json.Int id) :: body)) in
  let buf = line ^ "\n" in
  let t0 = M.now () in
  let rec write off =
    if off < String.length buf then
      write (off + Unix.write_substring c.fd buf off (String.length buf - off))
  in
  let rec read () =
    match Json.of_string (input_line c.ic) with
    | Ok j when Option.bind (Json.member "id" j) Json.to_int_opt = Some id -> j
    | _ -> read ()
  in
  match
    write 0;
    read ()
  with
  | j -> (
      let rt = M.now () -. t0 in
      match Json.member "ok" j with
      | Some (Json.Bool true) ->
          let result = Option.value (Json.member "result" j) ~default:Json.Null in
          { ok = true; result; error = ""; rt; line }
      | _ ->
          let error =
            Option.value (Option.bind (Json.member "error" j) Json.to_string_opt) ~default:"error envelope"
          in
          { ok = false; result = Json.Null; error; rt; line })
  | exception ((End_of_file | Sys_error _ | Unix.Unix_error _) as e) ->
      { ok = false; result = Json.Null; error = "no reply: " ^ Printexc.to_string e; rt = M.now () -. t0; line }

let str k j = Option.bind (Json.member k j) Json.to_string_opt
let job_num k j = Option.bind (Option.bind (Json.member "job" j) (Json.member k)) Json.to_float_opt

(* Client round trip split by the server's own job accounting: queue
   wait and run time from the response's [job] fields; the remainder is
   the hops (front door, dispatch, transport both ways). *)
type sample = { rt : float; wait : float; run : float }

let sample_of (r : reply) =
  {
    rt = r.rt;
    wait = Option.value (job_num "wait_s" r.result) ~default:nan;
    run = Option.value (job_num "run_s" r.result) ~default:nan;
  }

let hop s = s.rt -. s.wait -. s.run

(* ---- the supervisor process ---- *)

type server = {
  pid : int;
  sock : string;
  shm_path : string;
  pid_file : string;
  mutable reaped : bool;
}

(* Fork into a new session, so one kill of the process group reaches the
   supervisor and every worker it spawns.  The pid file lets run.py kill
   that group should this process itself be killed first. *)
let spawn ~cli ~dir =
  let sock = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "supervisor.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let argv =
    [| cli; "serve"; "--workers-proc"; "2"; "--workers"; "1"; "--transport"; "shm"; "--socket"; sock;
       "--drain-grace"; "5" |]
  in
  match Unix.fork () with
  | 0 -> (
      try
        ignore (Unix.setsid ());
        Unix.dup2 ~cloexec:false log Unix.stdout;
        Unix.dup2 ~cloexec:false log Unix.stderr;
        Unix.execv cli argv
      with _ -> Unix._exit 127)
  | pid ->
      Unix.close log;
      let pid_file = Filename.concat dir "supervisor.pid" in
      Out_channel.with_open_text pid_file (fun oc -> Printf.fprintf oc "%d\n" pid);
      { pid; sock; shm_path = sock ^ ".shm"; pid_file; reaped = false }

let exited sv =
  if not sv.reaped then
    sv.reaped <-
      (match Unix.waitpid [ Unix.WNOHANG ] sv.pid with
      | 0, _ -> false
      | _ -> true
      | exception Unix.Unix_error _ -> true);
  sv.reaped

let alive pid = match Unix.kill pid 0 with () -> true | exception Unix.Unix_error _ -> false

let kill_group sv =
  (try Unix.kill (-sv.pid) Sys.sigkill with Unix.Unix_error _ -> ());
  if not sv.reaped then (
    (try ignore (Unix.waitpid [] sv.pid) with Unix.Unix_error _ -> ());
    sv.reaped <- true);
  try Sys.remove sv.pid_file with Sys_error _ -> ()

let worker_pids shm =
  Array.to_list (Array.map (fun r -> r.Shm.worker.Shm.pid) (Shm.read_all shm))

let all_serving shm =
  Array.for_all
    (fun r -> r.Shm.worker.Shm.state = Shm.W_serving && r.Shm.worker.Shm.pid > 0)
    (Shm.read_all shm)

(* Ready once every worker reports serving in the shm segment and a
   status round trip succeeds. *)
let wait_ready sv ~deadline =
  let rec poll () =
    if exited sv then Error "supervisor exited during start-up"
    else if M.now () > deadline then Error "supervisor not ready in time"
    else
      let shm = if Sys.file_exists sv.shm_path then Shm.attach ~path:sv.shm_path () else Error "" in
      match shm with
      | Ok shm when all_serving shm -> (
          match connect sv.sock with
          | c ->
              let r = call c [ ("op", Json.String "status") ] in
              if r.ok then Ok (shm, c)
              else (
                close c;
                Error ("status: " ^ r.error))
          | exception Unix.Unix_error _ -> retry ())
      | _ -> retry ()
  and retry () =
    Unix.sleepf 0.002;
    poll ()
  in
  poll ()

(* Stop with the shutdown op and a bounded wait (SIGTERM to an idle
   supervisor has been seen to leave it running for minutes).  On a
   timeout the whole process group is SIGKILLed.  Clean means: the
   supervisor and every worker exited in time, and the socket and shm
   files are gone. *)
let stop sv ~conn ~workers =
  let r = call conn [ ("op", Json.String "shutdown") ] in
  close conn;
  let deadline = M.now () +. shutdown_timeout_s in
  let rec wait () =
    if exited sv && not (List.exists alive workers) then true
    else if M.now () > deadline then false
    else (
      Unix.sleepf 0.01;
      wait ())
  in
  let in_time = r.ok && wait () in
  kill_group sv;
  in_time && not (Sys.file_exists sv.sock || Sys.file_exists sv.shm_path)

type live = { sv : server; shm : Shm.t; conn : conn; workers : int list; setup : float }

let start tally ~cli ~dir =
  let t0 = M.now () in
  let sv = spawn ~cli ~dir in
  match wait_ready sv ~deadline:(t0 +. ready_timeout_s) with
  | Ok (shm, conn) ->
      let setup = M.now () -. t0 in
      M.check tally true "start";
      { sv; shm; conn; workers = worker_pids shm; setup }
  | Error e ->
      M.check tally false "supervisor start: %s" e;
      kill_group sv;
      failwith e

(* ---- the two closed-loop connections ---- *)

type window = {
  flows : sample list;
  statuses : float list;
  edits : sample list;
  queries : sample list;
  ops : int;
  span : float;
}

(* Connection A: flow on tiny, then status, until [t_end].  Every flow
   digest must equal the in-process tiny digest. *)
let loop_a tally conn ~tiny ~t_end =
  let flows = ref [] and statuses = ref [] and live = ref true in
  while !live && M.now () < t_end do
    let r = call conn [ ("op", Json.String "flow"); ("bench", Json.String "tiny") ] in
    M.check tally (r.ok && str "digest" r.result = Some tiny) "flow tiny: %s"
      (if r.ok then "digest mismatch" else r.error);
    if r.ok then flows := sample_of r :: !flows else live := false;
    if !live then (
      let r = call conn [ ("op", Json.String "status") ] in
      M.check tally r.ok "status: %s" r.error;
      if r.ok then statuses := r.rt :: !statuses else live := false)
  done;
  (!flows, !statuses)

(* Connection B: one seeded edit batch, then a query, until [t_end].
   The query must report the digest the edit just returned.  Every
   edit line sent is kept for the scratch replay. *)
type session = {
  conn_b : conn;
  sid : int;
  geometry : Eco_stream.geometry;
  rng : Random.State.t;
  mutable sent : string list;
  mutable digest : string;
}

let edit_and_query tally s =
  let batch = Eco_stream.batch s.rng s.geometry in
  let r =
    call s.conn_b
      [ ("op", Json.String "session_edit"); ("session", Json.Int s.sid); ("edits", Json.List batch) ]
  in
  s.sent <- r.line :: s.sent;
  let digest = str "digest" r.result in
  M.check tally (r.ok && digest <> None) "session_edit: %s" r.error;
  Option.iter (fun d -> s.digest <- d) digest;
  if not r.ok then None
  else
    let q = call s.conn_b [ ("op", Json.String "session_query"); ("session", Json.Int s.sid) ] in
    M.check tally (q.ok && str "digest" q.result = Some s.digest) "session_query: %s"
      (if q.ok then "digest differs from the last edit's" else q.error);
    if q.ok then Some (sample_of r, sample_of q) else None

let loop_b tally s ~t_end =
  let edits = ref [] and queries = ref [] and live = ref true in
  while !live && M.now () < t_end do
    match edit_and_query tally s with
    | Some (e, q) ->
        edits := e :: !edits;
        queries := q :: !queries
    | None -> live := false
  done;
  (!edits, !queries)

let window tally ~a ~s ~tiny ~seconds =
  let t0 = M.now () in
  let t_end = t0 +. seconds in
  let ra = ref ([], []) and rb = ref ([], []) in
  let ends = Array.make 2 t0 in
  let ta =
    Thread.create
      (fun () ->
        ra := loop_a tally a ~tiny ~t_end;
        ends.(0) <- M.now ())
      ()
  in
  let tb =
    Thread.create
      (fun () ->
        rb := loop_b tally s ~t_end;
        ends.(1) <- M.now ())
      ()
  in
  Thread.join ta;
  Thread.join tb;
  let flows, statuses = !ra and edits, queries = !rb in
  {
    flows;
    statuses;
    edits;
    queries;
    ops = List.length flows + List.length statuses + List.length edits + List.length queries;
    span = Float.max ends.(0) ends.(1) -. t0;
  }

(* ---- shm row deltas ---- *)

let row_sum rows f = float_of_int (Array.fold_left (fun acc r -> acc + f r.Shm.worker) 0 rows)

let solver_sum rows name =
  match Array.find_index (String.equal name) Rc_obs.Metrics.export_names with
  | None -> 0.0
  | Some i -> row_sum rows (fun w -> if i < Array.length w.Shm.solver then w.Shm.solver.(i) else 0)

let deltas rows0 rows1 =
  let d f = row_sum rows1 f -. row_sum rows0 f in
  let ds name = solver_sum rows1 name -. solver_sum rows0 name in
  [
    ("serve.shm_fallbacks", d (fun w -> w.Shm.shm_fallbacks));
    ("serve.ckpt_saves", d (fun w -> w.Shm.ckpt_saves));
    ("serve.ckpt_skips", d (fun w -> w.Shm.ckpt_skips));
    ("serve.session.evictions", ds "serve.session.evictions");
    ("serve.session.rehydrations", ds "serve.session.rehydrations");
  ]

(* In-process checkpoint costs on the session's final state. *)
let ckpt_costs ctx =
  let reps = 5 in
  let med f = M.median (List.init reps (fun _ -> snd (M.time f))) in
  let _, blob = Rc_serve.Checkpoint.to_blob ctx in
  [
    ("ckpt.encode_s", med (fun () -> ignore (Rc_serve.Checkpoint.to_blob ctx)));
    ("ckpt.decode_s", med (fun () -> ignore (Rc_serve.Checkpoint.load_blob blob)));
    ("ckpt.digest_s", med (fun () -> ignore (Rc_serve.Checkpoint.digest_of_ctx ctx)));
    ("ckpt.blob_kb", float_of_int (String.length blob) /. 1024.0);
  ]

(* ---- the workload ---- *)

let run ~cli ~dir ~seed ~seconds ~trace =
  (* every in-process flow stays in this domain: Unix.fork is refused
     once a domain has been spawned *)
  Rc_par.Pool.set_jobs 1;
  (* a dead server must surface as EPIPE on the write, a failed reply *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tally = M.tally () in
  let tiny = Rc_serve.Checkpoint.digest_of_outcome (Flow.run (Flow.default_config Bench_suite.tiny)) in
  let setups =
    List.init (setup_reps - 1) (fun _ ->
        let l = start tally ~cli ~dir in
        M.check tally (stop l.sv ~conn:l.conn ~workers:l.workers) "set-up teardown";
        l.setup)
  in
  let l = start tally ~cli ~dir in
  let finish_server () =
    let ok = stop l.sv ~conn:l.conn ~workers:l.workers in
    M.check tally ok "teardown: shutdown op, bounded wait, no process or file left";
    ok
  in
  match
    (* warm-up, outside the timed windows: one flow and status on A, the
       session open plus one edit and query on B *)
    let a = l.conn in
    let r = call a [ ("op", Json.String "flow"); ("bench", Json.String "tiny") ] in
    M.check tally (r.ok && str "digest" r.result = Some tiny) "warm-up flow: %s" r.error;
    let r = call a [ ("op", Json.String "status") ] in
    M.check tally r.ok "warm-up status: %s" r.error;
    let conn_b = connect l.sv.sock in
    let o =
      call conn_b
        [ ("op", Json.String "session_open"); ("bench", Json.String Eco_stream.session_bench.Bench_suite.bname) ]
    in
    let sid = Option.bind (Json.member "session" o.result) Json.to_int_opt in
    let geometry = Eco_stream.geometry_of_open o.result in
    M.check tally (o.ok && sid <> None && geometry <> None) "session_open: %s" o.error;
    match (sid, geometry) with
    | Some sid, Some geometry ->
        let s =
          {
            conn_b;
            sid;
            geometry;
            rng = Random.State.make [| seed; 0xEC0 |];
            sent = [];
            digest = Option.value (str "digest" o.result) ~default:"";
          }
        in
        ignore (edit_and_query tally s);
        (* traced runs split the time: the first half untraced, the
           second half with the shm rows read around it *)
        let untraced = if trace then Some (window tally ~a ~s ~tiny ~seconds:(seconds /. 2.0)) else None in
        let rows0 = Shm.read_all l.shm in
        let w = window tally ~a ~s ~tiny ~seconds:(if trace then seconds /. 2.0 else seconds) in
        let rows1 = Shm.read_all l.shm in
        let peak =
          List.fold_left (fun acc pid -> Float.max acc (M.peak_rss_mb ~pid:(string_of_int pid) ())) 0.0 l.workers
        in
        let c = call conn_b [ ("op", Json.String "session_close"); ("session", Json.Int sid) ] in
        M.check tally c.ok "session_close: %s" c.error;
        close conn_b;
        Some (s, o.rt, untraced, w, rows0, rows1, peak)
    | _ ->
        close conn_b;
        None
  with
  | exception e ->
      ignore (finish_server ());
      raise e
  | None ->
      ignore (finish_server ());
      failwith "session_open failed"
  | Some (s, open_s, untraced, w, rows0, rows1, peak) ->
      ignore (finish_server ());
      (* the ECO replay identity: the live session's final digest must
         equal a scratch replay of the same batches *)
      let ctx, apply_times = Eco_stream.replay (List.rev s.sent) in
      let replayed = Rc_serve.Checkpoint.digest_of_ctx ctx in
      M.check tally (replayed = s.digest) "ECO replay digest %s, live session %s" replayed s.digest;
      let rps w = float_of_int w.ops /. w.span in
      let rts xs = List.map (fun x -> x.rt) xs in
      let e2e =
        [
          ("setup_s", M.median (l.setup :: setups));
          ("flow_wall_s", M.median (rts w.flows));
          ("peak_rss_mb", peak);
          ("ops_per_s", rps w);
        ]
      in
      Printf.printf "window: %d flows, %d statuses, %d edits, %d queries in %.2f s\n"
        (List.length w.flows) (List.length w.statuses) (List.length w.edits) (List.length w.queries) w.span;      let per_layer () =
        let split = w.flows @ w.queries in
        let hops = List.map hop split in
        let runs xs = List.map (fun x -> x.run) xs in
        let hop_share = M.sum hops /. M.sum (rts split) in
        Printf.printf
          "hops (round trip minus job wait and run) are %.1f%% of flow and query round trips;\n\
          \  hop + wait + run equals the round trip by construction\n"
          (100.0 *. hop_share);
        [
          ("serve.front_door_p50_s", M.median w.statuses);
          ("serve.hop_p50_s", M.median hops);
          ("serve.queue_wait_p99_s", M.tail (List.map (fun x -> x.wait) (split @ w.edits)) 0.99);
          ("serve.flow_run_p50_s", M.median (runs w.flows));
          ("serve.edit_run_p50_s", M.median (runs w.edits));
          ("serve.edit_run_p99_s", M.tail (runs w.edits) 0.99);
          ("serve.session_open_s", open_s);
          ("eco.apply_edits_p50_s", M.median apply_times);
          ("flow_p99_s", M.tail (rts w.flows) 0.99);
          ("edit_p50_s", M.median (rts w.edits));
          ("edit_p99_s", M.tail (rts w.edits) 0.99);
          ("query_p50_s", M.median (rts w.queries));
          ("trace.hop_share", hop_share);
          ( "trace.overhead_frac",
            match untraced with Some u -> (rps u /. rps w) -. 1.0 | None -> 0.0 );
        ]
        @ deltas rows0 rows1 @ ckpt_costs ctx
      in
      (tally, e2e @ (if trace then per_layer () else []))
