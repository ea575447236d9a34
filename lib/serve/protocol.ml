(* The serve wire protocol: line-delimited JSON requests and responses,
   and the job bodies each request dispatches to.

   One request per line, one response per line, matched by the client's
   "id" field (echoed verbatim), so responses may arrive out of request
   order — the whole point of a concurrent server.  Heavy operations
   (flow, report, sweep, variation) become scheduler jobs on a worker;
   cheap ones (checkpoint inspection, status, restart, shutdown) are
   answered inline by the supervisor.  Checkpoint payloads never cross the socket: requests carry
   checkpoint *paths*, which keeps the protocol small and the Marshal
   blob off the untrusted channel.

   Request envelope:   {"id": any, "op": string, "priority"?: int,
                        "deadline_ms"?: number, ...op-specific fields}
   Response envelope:  {"id": any, "ok": true,  "result": {...}}
                     | {"id": any, "ok": false, "error": "reason"} *)

open Rc_core
module Json = Rc_util.Json

(* ---- op-specific request payloads ------------------------------------- *)

type flow_request = {
  f_bench : Bench_suite.bench;
  f_mode : Flow.mode;
  f_max_iterations : int option;
  f_checkpoint_every : int option;  (* None = no checkpointing *)
  f_checkpoint_dir : string option;
  f_resume_from : string option;  (* checkpoint path; overrides a fresh run *)
}

type report_request = { r_benches : Bench_suite.bench list; r_timings : bool }

type sweep_request = { s_bench : Bench_suite.bench; s_grids : int list }

type variation_request = { v_bench : Bench_suite.bench; v_mode : Flow.mode }

type session_open_request = {
  so_flow : flow_request;
      (* the flow that seeds the session: a fresh run or a resume_from
         checkpoint — either way the session holds its shipped state *)
  so_session : int option;
      (* session id; the supervisor stamps its dispatch sid here so the
         id is cluster-unique; a store driven without one assigns its own *)
}

type session_edit_request = {
  se_session : int;
  se_seq : int option;
      (* 1-based applied-batch sequence number; the supervisor stamps
         it so a crash-redispatched edit is applied exactly once *)
  se_edits : Flow.edit list;
}

type op =
  | Flow_op of flow_request
  | Report_op of report_request
  | Sweep_op of sweep_request
  | Variation_op of variation_request
  | Session_open_op of session_open_request
  | Session_edit_op of session_edit_request
  | Session_query_op of int
  | Session_close_op of int
  | Checkpoint_op of string  (* inspect a checkpoint file *)
  | Status_op
  | Restart_op  (* rolling worker restart; a supervisor-tier operation *)
  | Shutdown_op

type request = {
  req_id : Json.t;  (* echoed back; Null when the client sent none *)
  priority : int;
  deadline_s : float option;  (* relative seconds, from "deadline_ms" *)
  op : op;
}

(* ---- parsing ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let bench_of_json j =
  match Option.bind j Json.to_string_opt with
  | None -> Error "missing or invalid \"bench\""
  | Some name -> (
      match Bench_suite.find name with
      | Some b -> Ok b
      | None ->
          Error
            (Printf.sprintf "unknown bench %S (known: %s)" name
               (String.concat ", " Bench_suite.names)))

let mode_of_json ?(default = Flow.Netflow) j =
  match Option.bind j Json.to_string_opt with
  | None -> Ok default
  | Some "netflow" -> Ok Flow.Netflow
  | Some "ilp" -> Ok Flow.Ilp
  | Some m -> Error (Printf.sprintf "unknown mode %S (netflow | ilp)" m)

let opt_field conv = function
  | None -> Ok None
  | Some j -> ( match conv j with Some v -> Ok (Some v) | None -> Error "invalid field")

(* bounds of a sweep request: [Ring_array.create] builds grid² rings,
   and size1m's 50 is the largest shipped grid *)
let max_sweep_grid = 64
let max_sweep_grids = 16

let parse_flow j =
  let resuming =
    match Option.bind (Json.member "resume_from" j) Json.to_string_opt with
    | Some _ -> true
    | None -> false
  in
  let* f_bench =
    (* a resume takes its config from the checkpoint; "bench" is only
       required for fresh runs *)
    match Json.member "bench" j with
    | None when resuming -> Ok Bench_suite.tiny
    | b -> bench_of_json b
  in
  let* f_mode = mode_of_json (Json.member "mode" j) in
  let* f_max_iterations =
    match opt_field Json.to_int_opt (Json.member "max_iterations" j) with
    | Ok (Some k) when k < 0 -> Error "invalid \"max_iterations\" (expected >= 0)"
    | Ok k -> Ok k
    | Error _ -> Error "invalid \"max_iterations\""
  in
  let* f_checkpoint_every =
    match opt_field Json.to_int_opt (Json.member "checkpoint_every" j) with
    | Ok (Some every) when every < 1 -> Error "invalid \"checkpoint_every\" (expected >= 1)"
    | Ok every -> Ok every
    | Error _ -> Error "invalid \"checkpoint_every\""
  in
  let* f_checkpoint_dir =
    Result.map_error
      (fun _ -> "invalid \"checkpoint_dir\"")
      (opt_field Json.to_string_opt (Json.member "checkpoint_dir" j))
  in
  let* f_resume_from =
    Result.map_error
      (fun _ -> "invalid \"resume_from\"")
      (opt_field Json.to_string_opt (Json.member "resume_from" j))
  in
  (* a resumed flow writes no checkpoints: refuse the request rather
     than drop the option without a word *)
  let* () =
    match (f_resume_from, f_checkpoint_every) with
    | Some _, Some _ -> Error "\"resume_from\" cannot be combined with \"checkpoint_every\""
    | _ -> Ok ()
  in
  Ok
    (Flow_op
       {
         f_bench;
         f_mode;
         f_max_iterations;
         f_checkpoint_every;
         f_checkpoint_dir;
         f_resume_from;
       })

let parse_report j =
  let* r_benches =
    match Json.member "benches" j with
    | None -> Ok Bench_suite.quick
    | Some bs -> (
        match Json.to_list_opt bs with
        | None -> Error "invalid \"benches\" (expected a list of names)"
        | Some items ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                let* b = bench_of_json (Some item) in
                Ok (b :: acc))
              (Ok []) items
            |> Result.map List.rev)
  in
  let* r_timings =
    Result.map_error
      (fun _ -> "invalid \"timings\"")
      (opt_field Json.to_bool_opt (Json.member "timings" j))
  in
  Ok (Report_op { r_benches; r_timings = Option.value r_timings ~default:false })

let parse_sweep j =
  let* s_bench = bench_of_json (Json.member "bench" j) in
  let* s_grids =
    match Json.member "grids" j with
    | None -> Ok [ 2; 3; 4; 5 ]
    | Some gs -> (
        match
          Option.map
            (List.map Json.to_int_opt)
            (Json.to_list_opt gs)
        with
        | Some ints when List.for_all Option.is_some ints ->
            Ok (List.map Option.get ints)
        | _ -> Error "invalid \"grids\" (expected a list of ints)")
  in
  if s_grids = [] then Error "\"grids\" must be non-empty"
  else if List.length s_grids > max_sweep_grids then
    Error (Printf.sprintf "invalid \"grids\" (at most %d grids)" max_sweep_grids)
  else if List.exists (fun g -> g < 1 || g > max_sweep_grid) s_grids then
    Error (Printf.sprintf "invalid \"grids\" (each grid in 1..%d)" max_sweep_grid)
  else Ok (Sweep_op { s_bench; s_grids })

let parse_variation j =
  let* v_bench = bench_of_json (Json.member "bench" j) in
  let* v_mode = mode_of_json (Json.member "mode" j) in
  Ok (Variation_op { v_bench; v_mode })

let parse_checkpoint j =
  match Option.bind (Json.member "path" j) Json.to_string_opt with
  | Some p -> Ok (Checkpoint_op p)
  | None -> Error "missing or invalid \"path\""

(* ---- session ops ------------------------------------------------------- *)

let session_of_json j = Option.bind (Json.member "session" j) Json.to_int_opt

let require_session j =
  match session_of_json j with
  | Some sid -> Ok sid
  | None -> Error "missing or invalid \"session\""

let parse_session_open j =
  let* flow_op = parse_flow j in
  let so_flow = match flow_op with Flow_op f -> f | _ -> assert false in
  Ok (Session_open_op { so_flow; so_session = session_of_json j })

let num_field name j =
  match Option.bind (Json.member name j) Json.to_float_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "edit: missing or invalid %S" name)

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "edit: missing or invalid %S" name)

(* one edit object: {"kind": "move" | "shift" | "retarget" | "period",
   ...kind-specific fields} *)
let parse_edit j =
  match Option.bind (Json.member "kind" j) Json.to_string_opt with
  | None -> Error "edit: missing or invalid \"kind\""
  | Some "move" ->
      let* c = int_field "cell" j in
      let* x = num_field "x" j in
      let* y = num_field "y" j in
      Ok (Flow.Move_cells [ (c, { Rc_geom.Point.x; y }) ])
  | Some "shift" ->
      let* xmin = num_field "xmin" j in
      let* ymin = num_field "ymin" j in
      let* xmax = num_field "xmax" j in
      let* ymax = num_field "ymax" j in
      let* dx = num_field "dx" j in
      let* dy = num_field "dy" j in
      if xmax < xmin || ymax < ymin then Error "edit: degenerate \"shift\" block"
      else Ok (Flow.Shift_block (Rc_geom.Rect.make ~xmin ~ymin ~xmax ~ymax, dx, dy))
  | Some "retarget" ->
      let* ff = int_field "ff" j in
      let* ring = int_field "ring" j in
      Ok (Flow.Retarget_ff (ff, ring))
  | Some "period" ->
      let* p = num_field "period" j in
      if Float.is_finite p && p > 0.0 then Ok (Flow.Set_clock_period p)
      else Error "edit: \"period\" must be positive"
  | Some k -> Error (Printf.sprintf "edit: unknown kind %S (move | shift | retarget | period)" k)

let parse_session_edit j =
  let* se_session = require_session j in
  let* se_seq =
    Result.map_error
      (fun _ -> "invalid \"seq\"")
      (opt_field Json.to_int_opt (Json.member "seq" j))
  in
  let* se_edits =
    match Option.bind (Json.member "edits" j) Json.to_list_opt with
    | None -> Error "missing or invalid \"edits\" (expected a list)"
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* e = parse_edit item in
            Ok (e :: acc))
          (Ok []) items
        |> Result.map List.rev
  in
  Ok (Session_edit_op { se_session; se_seq; se_edits })

(* Parse errors carry the request id (when one could be recovered) so
   the error response is still addressable, and the offending op name
   (when the request named one) so the error envelope can echo it —
   a client triaging a mixed workload sees *which* op was rejected,
   not just a generic parse error. *)
let parse_request line =
  let* j = Result.map_error (fun e -> (Json.Null, None, e)) (Json.of_string line) in
  let req_id = Option.value (Json.member "id" j) ~default:Json.Null in
  let attach op_result =
    let* op = op_result in
    let* priority =
      match opt_field Json.to_int_opt (Json.member "priority" j) with
      | Ok p -> Ok (Option.value p ~default:0)
      | Error _ -> Error "invalid \"priority\" (expected an int)"
    in
    let* deadline_s =
      match opt_field Json.to_float_opt (Json.member "deadline_ms" j) with
      | Ok None -> Ok None
      | Ok (Some ms) when Float.is_finite ms && ms > 0.0 -> Ok (Some (ms /. 1000.0))
      | _ -> Error "invalid \"deadline_ms\" (expected a number > 0)"
    in
    Ok { req_id; priority; deadline_s; op }
  in
  match Option.bind (Json.member "op" j) Json.to_string_opt with
  | None -> Error (req_id, None, "missing or invalid \"op\"")
  | Some name ->
      Result.map_error
        (fun e -> (req_id, Some name, e))
        (attach
           (match name with
           | "flow" -> parse_flow j
           | "report" -> parse_report j
           | "sweep" -> parse_sweep j
           | "variation" -> parse_variation j
           | "session_open" -> parse_session_open j
           | "session_edit" -> parse_session_edit j
           | "session_query" -> Result.map (fun s -> Session_query_op s) (require_session j)
           | "session_close" -> Result.map (fun s -> Session_close_op s) (require_session j)
           | "checkpoint" -> parse_checkpoint j
           | "status" -> Ok Status_op
           | "restart" -> Ok Restart_op
           | "shutdown" -> Ok Shutdown_op
           | other ->
               Error
                 (Printf.sprintf
                    "unknown op %S (flow | report | sweep | variation | session_open \
                     | session_edit | session_query | session_close | checkpoint | status \
                     | restart | shutdown)"
                    other)))

(* ---- bounded line reading --------------------------------------------- *)

let max_line_bytes = 1 lsl 20

type line = Line of string | Too_long | Eof

let read_line ic =
  let b = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Line (Buffer.contents b)
    | _ when Buffer.length b >= max_line_bytes -> Too_long
    | c ->
        Buffer.add_char b c;
        go ()
    | exception End_of_file -> if Buffer.length b = 0 then Eof else Line (Buffer.contents b)
  in
  go ()

(* ---- response rendering ----------------------------------------------- *)

let response_ok ~id result = Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let response_error ~id ?op msg =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool false) ]
    @ (match op with Some o -> [ ("op", Json.String o) ] | None -> [])
    @ [ ("error", Json.String msg) ])

let json_of_snapshot (s : Flow.snapshot) =
  Json.Obj
    [
      ("iteration", Json.Int s.Flow.iteration);
      ("afd_um", Json.Float s.Flow.afd);
      ("tapping_wl_um", Json.Float s.Flow.tapping_wl);
      ("signal_wl_um", Json.Float s.Flow.signal_wl);
      ("total_wl_um", Json.Float s.Flow.total_wl);
      ("clock_mw", Json.Float s.Flow.clock_mw);
      ("signal_mw", Json.Float s.Flow.signal_mw);
      ("total_mw", Json.Float s.Flow.total_mw);
      ("max_load_ff", Json.Float s.Flow.max_load_ff);
    ]

let json_of_outcome ?(checkpoints = []) (o : Flow.outcome) =
  Json.Obj
    [
      ("bench", Json.String o.Flow.cfg.Flow.bench.Bench_suite.bname);
      ("mode", Json.String (Checkpoint.mode_name o.Flow.cfg.Flow.mode));
      ("iterations", Json.Int (List.length o.Flow.history));
      ("slack_ps", Json.Float o.Flow.slack);
      ("stage4_slack_ps", Json.Float o.Flow.stage4_slack);
      ("n_pairs", Json.Int o.Flow.n_pairs);
      ("base", json_of_snapshot o.Flow.base);
      ("final", json_of_snapshot o.Flow.final);
      ("history", Json.List (List.map json_of_snapshot o.Flow.history));
      ("digest", Json.String (Checkpoint.digest_of_outcome o));
      ( "checkpoints",
        Json.List
          (List.map
             (fun (k, path) ->
               Json.Obj [ ("iteration", Json.Int k); ("path", Json.String path) ])
             checkpoints) );
    ]

(* ---- job bodies -------------------------------------------------------- *)

(* the flow's cooperative-cancellation point: poll the token at every
   stage boundary *)
let guard_of token = fun (_ : Flow_ctx.t) -> Cancel.check token

let config_of_flow_request (r : flow_request) =
  let base = Flow.default_config ~mode:r.f_mode r.f_bench in
  { base with Flow.max_iterations = Option.value r.f_max_iterations ~default:base.Flow.max_iterations }

(* the flow that seeds a session: a resume or a fresh run, with the
   checkpointing fields ignored (the session store escrows its own
   state after every applied batch) *)
let outcome_of_flow_request (r : flow_request) token =
  match r.f_resume_from with
  | Some path -> (
      match Checkpoint.resume ~guard:(guard_of token) ~path () with
      | Ok outcome -> outcome
      | Error e -> failwith ("resume failed: " ^ e))
  | None -> Flow.run ~guard:(guard_of token) (config_of_flow_request r)

let run_flow (r : flow_request) token =
  match (r.f_resume_from, r.f_checkpoint_every) with
  | None, Some every ->
      let dir = Option.value r.f_checkpoint_dir ~default:"checkpoints" in
      let name =
        Printf.sprintf "%s-%s" r.f_bench.Bench_suite.bname (Checkpoint.mode_name r.f_mode)
      in
      let outcome, checkpoints =
        Checkpoint.run_with_checkpoints ~every ~dir ~name ~guard:(guard_of token)
          (config_of_flow_request r)
      in
      json_of_outcome ~checkpoints outcome
  | _ -> json_of_outcome (outcome_of_flow_request r token)

let run_report (r : report_request) token =
  Cancel.check token;
  (* Paper_report runs its circuits sequentially; poll between them via
     the flow guard is not plumbed there, so the report job checks only
     at its start — the per-circuit flows are the atomic unit *)
  let reports = Paper_report.collect ~benches:r.r_benches () in
  Cancel.check token;
  Paper_report.json_of (Paper_report.build ~timings:r.r_timings reports)

let run_sweep (r : sweep_request) token =
  Cancel.check token;
  let points, best = Ring_sweep.sweep r.s_bench ~grids:r.s_grids in
  let json_of_point (p : Ring_sweep.point) =
    Json.Obj
      [
        ("grid", Json.Int p.Ring_sweep.grid);
        ("n_rings", Json.Int p.Ring_sweep.n_rings);
        ("ring_metal_um", Json.Float p.Ring_sweep.ring_metal);
        ("slack_ps", Json.Float p.Ring_sweep.slack);
        ("final", json_of_snapshot p.Ring_sweep.final);
      ]
  in
  Json.Obj
    [
      ("bench", Json.String r.s_bench.Bench_suite.bname);
      ("points", Json.List (List.map json_of_point points));
      ("best_grid", Json.Int best.Ring_sweep.grid);
    ]

let run_variation (r : variation_request) token =
  let outcome = Flow.run ~guard:(guard_of token) (Flow.default_config ~mode:r.v_mode r.v_bench) in
  Cancel.check token;
  let result = Variation_study.run outcome in
  let json_of_summary (s : Rc_variation.Variation.summary) =
    Json.Obj
      [
        ("nominal_max_path_ps", Json.Float s.Rc_variation.Variation.nominal_max_path);
        ("mean_spread_ps", Json.Float s.Rc_variation.Variation.mean_spread);
        ("p95_spread_ps", Json.Float s.Rc_variation.Variation.p95_spread);
        ("max_spread_ps", Json.Float s.Rc_variation.Variation.max_spread);
        ("relative_spread", Json.Float s.Rc_variation.Variation.relative_spread);
      ]
  in
  Json.Obj
    [
      ("bench", Json.String r.v_bench.Bench_suite.bname);
      ("tree", json_of_summary result.Variation_study.tree);
      ("rotary", json_of_summary result.Variation_study.rotary);
    ]

let inspect_checkpoint path =
  match Checkpoint.inspect ~path with
  | Ok meta -> Ok (Checkpoint.json_of_meta meta)
  | Error e -> Error e

(* the scheduler job body for an async op; sync ops (checkpoint, status,
   restart, shutdown) are answered by the supervisor inline, and session
   ops by the worker's {!Session} store (which owns the resident state
   the job bodies need) *)
let job_of_op = function
  | Flow_op r -> Some (fun token -> run_flow r token)
  | Report_op r -> Some (fun token -> run_report r token)
  | Sweep_op r -> Some (fun token -> run_sweep r token)
  | Variation_op r -> Some (fun token -> run_variation r token)
  | Session_open_op _ | Session_edit_op _ | Session_query_op _ | Session_close_op _
  | Checkpoint_op _ | Status_op | Restart_op | Shutdown_op ->
      None

let op_name = function
  | Flow_op _ -> "flow"
  | Report_op _ -> "report"
  | Sweep_op _ -> "sweep"
  | Variation_op _ -> "variation"
  | Session_open_op _ -> "session_open"
  | Session_edit_op _ -> "session_edit"
  | Session_query_op _ -> "session_query"
  | Session_close_op _ -> "session_close"
  | Checkpoint_op _ -> "checkpoint"
  | Status_op -> "status"
  | Restart_op -> "restart"
  | Shutdown_op -> "shutdown"
