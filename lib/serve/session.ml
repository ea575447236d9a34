(* Online ECO session store -- see session.mli for the model. *)

module Json = Rc_util.Json
module Metrics = Rc_obs.Metrics
open Rc_core

(* Session counters in the shm export table (Metrics.export_names).
   Residency is a delta counter (+1 on becoming resident, -1 on losing
   residency), not a gauge: counter shards sum exactly across the
   scheduler domains that touch a session, where a gauge's merge would
   keep a stale shard's last value. *)
let m_opens = Metrics.counter "serve.session.opens"
let m_edits = Metrics.counter "serve.session.edits"
let m_evictions = Metrics.counter "serve.session.evictions"
let m_rehydrations = Metrics.counter "serve.session.rehydrations"
let m_resident = Metrics.counter "serve.session.resident"

(* ---------- store ---------- *)

type entry = {
  e_sid : int;
  e_lock : Mutex.t;  (* serializes ops on one session; held across stage re-runs *)
  mutable e_ctx : Flow_ctx.t option;  (* [Some] = resident *)
  mutable e_applied : int;  (* applied edit batches; -1 = shell awaiting rehydration *)
  mutable e_digest : string;
  mutable e_stamp : int;  (* LRU clock tick of the last touch *)
  mutable e_escrowed : bool;  (* last escrow succeeded: safe to evict *)
  mutable e_closed : bool;
}

type t = {
  dir : string;  (* escrow directory, shared by sibling workers *)
  capacity : int;
  lock : Mutex.t;  (* guards [entries], [clock], [next_sid] *)
  entries : (int, entry) Hashtbl.t;
  mutable clock : int;
  mutable next_sid : int;  (* ids for opens the supervisor did not stamp *)
}

let create ?(capacity = 8) ~dir () =
  {
    dir;
    capacity = max 1 capacity;
    lock = Mutex.create ();
    entries = Hashtbl.create 16;
    clock = 0;
    next_sid = 1;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let touch t e =
  t.clock <- t.clock + 1;
  e.e_stamp <- t.clock

let residents t =
  Hashtbl.fold
    (fun _ e n -> match e.e_ctx with Some _ -> n + 1 | None -> n)
    t.entries 0

let counts t =
  with_lock t.lock (fun () -> (residents t, Hashtbl.length t.entries))

(* Call with [t.lock] held.  Evicting only drops the resident context:
   the escrow written after the entry's last applied batch is the
   authoritative copy.  Entries mid-operation (lock busy) or whose last
   escrow failed are skipped -- they stay resident rather than lose
   state. *)
let evict_over_capacity t ~keep =
  let overflow = residents t - t.capacity in
  if overflow > 0 then begin
    let eligible =
      Hashtbl.fold
        (fun _ e acc ->
          match e.e_ctx with
          | Some _ when e.e_sid <> keep && e.e_escrowed -> e :: acc
          | _ -> acc)
        t.entries []
    in
    let by_age = List.sort (fun a b -> compare a.e_stamp b.e_stamp) eligible in
    List.iteri
      (fun i e ->
        if i < overflow && Mutex.try_lock e.e_lock then begin
          (match e.e_ctx with
          | Some _ ->
              e.e_ctx <- None;
              Metrics.incr m_evictions;
              Metrics.add m_resident (-1)
          | None -> ());
          Mutex.unlock e.e_lock
        end)
      by_age
  end

let escrow_path t sid = Filename.concat t.dir (Printf.sprintf "eco-sid%d.ckpt" sid)

let escrow t e ctx =
  match
    Checkpoint.mkdir_p t.dir;
    Checkpoint.save ~path:(escrow_path t e.e_sid) ctx
  with
  | _meta -> e.e_escrowed <- true
  | exception exn ->
      (* Keep the session resident and non-evictable until the next
         successful escrow; crash recovery degrades to the last one. *)
      e.e_escrowed <- false;
      Printf.eprintf "[session] sid %d escrow failed: %s\n%!" e.e_sid (Printexc.to_string exn)

let free_escrow t sid = try Sys.remove (escrow_path t sid) with Sys_error _ -> ()

(* Call with [e.e_lock] held. *)
let rehydrate t e =
  let path = escrow_path t e.e_sid in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no escrow for session %d under %s" e.e_sid t.dir)
  else
    match Checkpoint.load ~path () with
    | Error msg -> Error (Printf.sprintf "session %d escrow unreadable: %s" e.e_sid msg)
    | Ok (meta, ctx) ->
        e.e_ctx <- Some ctx;
        e.e_applied <- meta.Checkpoint.iteration;
        e.e_digest <- Checkpoint.digest_of_ctx ctx;
        e.e_escrowed <- true;
        Metrics.incr m_rehydrations;
        Metrics.add m_resident 1;
        Ok ctx

(* Find the session's entry, admitting a shell for an unknown sid so a
   redispatched op can rehydrate a crashed sibling's escrow.  Returns
   with no locks held; the caller takes [e.e_lock]. *)
let find_or_admit t sid =
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.entries sid with
      | Some e ->
          touch t e;
          e
      | None ->
          let e =
            {
              e_sid = sid;
              e_lock = Mutex.create ();
              e_ctx = None;
              e_applied = -1;
              e_digest = "";
              e_stamp = 0;
              e_escrowed = false;
              e_closed = false;
            }
          in
          Hashtbl.replace t.entries sid e;
          touch t e;
          e)

(* Call with [e.e_lock] held: the resident context, rehydrating from
   escrow when evicted (or when the sid is only known to the shared
   escrow directory -- the crash-recovery path).  A shell with no
   escrow file was never a session at all and is forgotten. *)
let resident_ctx t e =
  match e.e_ctx with
  | Some ctx -> Ok ctx
  | None -> (
      match rehydrate t e with
      | Ok ctx ->
          with_lock t.lock (fun () -> evict_over_capacity t ~keep:e.e_sid);
          Ok ctx
      | Error msg ->
          if e.e_applied < 0 then
            with_lock t.lock (fun () -> Hashtbl.remove t.entries e.e_sid);
          Error
            (if e.e_applied < 0 then
               Printf.sprintf "unknown session %d (%s)" e.e_sid msg
             else msg))

let fail fmt = Printf.ksprintf failwith fmt

(* ---------- responses ---------- *)

let head_snapshot (ctx : Flow_ctx.t) =
  match ctx.history with
  | s :: _ -> s
  | [] -> Flow_ctx.take_snapshot ctx ~iteration:ctx.iteration

let session_fields sid e = [ ("session", Json.Int sid); ("applied", Json.Int e.e_applied); ("digest", Json.String e.e_digest) ]

let open_result sid e (ctx : Flow_ctx.t) =
  let cfg = ctx.cfg in
  let chip = ctx.chip in
  Json.Obj
    (session_fields sid e
    @ [
        ("bench", Json.String cfg.bench.Bench_suite.bname);
        ("mode", Json.String (Checkpoint.mode_name cfg.mode));
        ("n_cells", Json.Int (Rc_netlist.Netlist.n_cells ctx.netlist));
        ("n_ffs", Json.Int (Array.length ctx.ffs));
        ("n_rings", Json.Int (Rc_rotary.Ring_array.n_rings ctx.rings));
        ("clock_period_ps", Json.Float cfg.tech.Rc_tech.Tech.clock_period);
        ( "chip",
          Json.Obj
            [
              ("xmin", Json.Float chip.Rc_geom.Rect.xmin);
              ("ymin", Json.Float chip.Rc_geom.Rect.ymin);
              ("xmax", Json.Float chip.Rc_geom.Rect.xmax);
              ("ymax", Json.Float chip.Rc_geom.Rect.ymax);
            ] );
        ("slack_ps", Json.Float ctx.slack);
        ("snapshot", Protocol.json_of_snapshot (head_snapshot ctx));
      ])

let edit_result sid e (report : Flow.edit_report) ~deduped =
  let b = report.Flow.er_before and a = report.Flow.er_after in
  Json.Obj
    (session_fields sid e
    @ [
        ("deduped", Json.Bool deduped);
        ( "stages",
          Json.List (List.map (fun s -> Json.String s) report.Flow.er_stages) );
        ("cells_moved", Json.Int report.Flow.er_cells_moved);
        ("slack_ps", Json.Float report.Flow.er_slack);
        ("before", Protocol.json_of_snapshot b);
        ("after", Protocol.json_of_snapshot a);
        ( "delta",
          Json.Obj
            [
              ("total_wl_um", Json.Float (a.Flow.total_wl -. b.Flow.total_wl));
              ( "tapping_wl_um",
                Json.Float (a.Flow.tapping_wl -. b.Flow.tapping_wl) );
              ("signal_wl_um", Json.Float (a.Flow.signal_wl -. b.Flow.signal_wl));
              ("total_mw", Json.Float (a.Flow.total_mw -. b.Flow.total_mw));
              ( "max_load_ff",
                Json.Float (a.Flow.max_load_ff -. b.Flow.max_load_ff) );
            ] );
      ])

(* ---------- ops ---------- *)

let open_session t (so : Protocol.session_open_request) token =
  let outcome = Protocol.outcome_of_flow_request so.Protocol.so_flow token in
  let ctx = Flow.context_of_outcome outcome in
  let digest = Checkpoint.digest_of_ctx ctx in
  let sid, e =
    with_lock t.lock (fun () ->
        let sid =
          match so.Protocol.so_session with
          | Some s -> s
          | None ->
              let s = t.next_sid in
              t.next_sid <- s + 1;
              s
        in
        let was_resident =
          match Hashtbl.find_opt t.entries sid with
          | Some old -> old.e_ctx <> None
          | None -> false
        in
        if not was_resident then Metrics.add m_resident 1;
        (* Replace wholesale: a crash-redispatched open re-runs the same
           deterministic flow, so the state (and digest) is identical. *)
        let e =
          {
            e_sid = sid;
            e_lock = Mutex.create ();
            e_ctx = Some ctx;
            e_applied = 0;
            e_digest = digest;
            e_stamp = 0;
            e_escrowed = false;
            e_closed = false;
          }
        in
        Hashtbl.replace t.entries sid e;
        touch t e;
        (sid, e))
  in
  with_lock e.e_lock (fun () -> escrow t e ctx);
  with_lock t.lock (fun () -> evict_over_capacity t ~keep:sid);
  Metrics.incr m_opens;
  open_result sid e ctx

(* An edit overtaken by a scheduler sibling (its predecessor's job still
   running) waits here for the predecessor to land.  Bounded: a genuine
   sequence gap (predecessor never dispatched) errors out. *)
let seq_wait_s = 10.0

let edit_session t (se : Protocol.session_edit_request) token =
  let sid = se.Protocol.se_session in
  let e = find_or_admit t sid in
  let deadline = Unix.gettimeofday () +. seq_wait_s in
  let rec run () =
    let r =
      with_lock e.e_lock (fun () ->
          if e.e_closed then fail "session %d is closed" sid;
          match resident_ctx t e with
          | Error msg -> failwith msg
          | Ok ctx ->
              let seq =
                match se.Protocol.se_seq with
                | Some s -> s
                | None -> e.e_applied + 1
              in
              if seq <= e.e_applied then
                (* Crash-redispatch dedupe: the batch already landed
                   (possibly on a sibling whose escrow we rehydrated). *)
                `Done (edit_result sid e Flow.{
                         er_before = head_snapshot ctx;
                         er_after = head_snapshot ctx;
                         er_stages = [];
                         er_cells_moved = 0;
                         er_slack = ctx.Flow_ctx.slack;
                       } ~deduped:true)
              else if seq > e.e_applied + 1 then `Wait seq
              else begin
                let ctx', report =
                  Flow.apply_edits ~guard:(Protocol.guard_of token) ctx
                    se.Protocol.se_edits
                in
                e.e_ctx <- Some ctx';
                e.e_applied <- seq;
                e.e_digest <- Checkpoint.digest_of_ctx ctx';
                escrow t e ctx';
                Metrics.incr m_edits;
                `Done (edit_result sid e report ~deduped:false)
              end)
    in
    match r with
    | `Done json -> json
    | `Wait seq ->
        if Unix.gettimeofday () > deadline then
          fail "session %d: edit seq %d ahead of applied %d (sequence gap)"
            sid seq e.e_applied
        else begin
          Cancel.check token;
          Thread.delay 0.01;
          run ()
        end
  in
  let json = run () in
  with_lock t.lock (fun () -> evict_over_capacity t ~keep:sid);
  json

let query_session t sid _token =
  let e = find_or_admit t sid in
  with_lock e.e_lock (fun () ->
      if e.e_closed then fail "session %d is closed" sid;
      match resident_ctx t e with
      | Error msg -> failwith msg
      | Ok ctx ->
          Json.Obj
            (session_fields sid e
            @ [
                ("snapshot", Protocol.json_of_snapshot (head_snapshot ctx));
                ("slack_ps", Json.Float ctx.Flow_ctx.slack);
              ]))

let close_session t sid _token =
  let e =
    with_lock t.lock (fun () -> Hashtbl.find_opt t.entries sid)
  in
  match e with
  | None ->
      (* Tolerate closing an escrow-only session (e.g. after a restart):
         just release its escrow file. *)
      free_escrow t sid;
      Json.Obj [ ("session", Json.Int sid); ("closed", Json.Bool true) ]
  | Some e ->
      let json =
        with_lock e.e_lock (fun () ->
            e.e_closed <- true;
            if e.e_ctx <> None then Metrics.add m_resident (-1);
            e.e_ctx <- None;
            Json.Obj
              (session_fields sid e @ [ ("closed", Json.Bool true) ]))
      in
      with_lock t.lock (fun () -> Hashtbl.remove t.entries sid);
      free_escrow t sid;
      json

let job_of_op t (op : Protocol.op) =
  match op with
  | Protocol.Session_open_op so -> Some (fun token -> open_session t so token)
  | Protocol.Session_edit_op se -> Some (fun token -> edit_session t se token)
  | Protocol.Session_query_op sid -> Some (query_session t sid)
  | Protocol.Session_close_op sid -> Some (close_session t sid)
  | _ -> None
