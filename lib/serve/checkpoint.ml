(* Versioned binary snapshots of flow state at iteration boundaries.

   File layout (all little parts verifiable before the heavy one):

     line 1   "RCCKPT <format-version>\n"        ASCII magic + version
     line 2   one-line JSON metadata "\n"        bench, mode, iteration,
                                                 payload byte count + MD5
     rest     Marshal blob of the [payload] record (plain data only —
              no closures, no custom blocks)

   The payload captures exactly the context fields the stage 4-6 loop
   reads: placement, skew targets, assignment, scalars (slack, pair
   count, convergence bookkeeping), snapshot history, the stage-5 best
   state, and the trace so far.  The netlist, rings and flip-flop index
   are NOT stored: they are deterministic functions of the config
   (regenerated on load), which keeps checkpoints small and makes a
   tampered file detectable by the digest.

   The Flow_cache warm state is deliberately represented by its *keys*
   (the restored positions/targets) rather than its contents: every
   cache in the flow validates against exact inputs, so a fresh cache
   produces bit-identical results, and [load] re-warms the incremental
   STA session from the restored placement so the resumed loop performs
   incremental (not cold) timing updates from the first iteration on.
   See docs/serving.md for the version policy. *)

open Rc_core

let format_version = 2

let magic = "RCCKPT"

type meta = {
  version : int;
  bench : string;
  mode : string;  (* "netflow" | "ilp" *)
  iteration : int;
  converged : bool;
  payload_bytes : int;
  payload_md5 : string;  (* hex MD5 of the marshal blob *)
}

(* everything the loop reads, as plain data; field order is part of the
   format — breaking changes must bump [format_version] *)
type payload = {
  p_cfg : Flow.config;
  p_arm : string;
  p_positions : Rc_geom.Point.t array;
  p_skews : float array;
  p_assignment : Rc_assign.Assign.t option;
  p_slack : float;
  p_stage4_slack : float;
  p_n_pairs : int;
  p_ilp_stats : Rc_assign.Assign.ilp_stats option;
  p_iteration : int;
  p_history : Flow_ctx.snapshot list;
  p_best : Flow_ctx.best option;
  p_current_cost : float;
  p_converged : bool;
  p_trace : Flow_trace.event list;
}

let mode_name = function Flow.Netflow -> "netflow" | Flow.Ilp -> "ilp"

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let hex = Digest.to_hex

(* ---- digests ---------------------------------------------------------- *)

(* canonical digest of the result-bearing state: equal digests <=> the
   placement, schedule and assignment are bit-identical.  Marshal gives
   a canonical byte encoding for these closure-free values. *)
let digest_of_state ~(positions : Rc_geom.Point.t array) ~(skews : float array)
    ~(assignment : Rc_assign.Assign.t option) =
  hex (Digest.string (Marshal.to_string (positions, skews, assignment) []))

let digest_of_ctx (ctx : Flow_ctx.t) =
  digest_of_state ~positions:ctx.Flow_ctx.positions ~skews:ctx.Flow_ctx.skews
    ~assignment:ctx.Flow_ctx.assignment

let digest_of_outcome (o : Flow.outcome) =
  digest_of_state ~positions:o.Flow.positions ~skews:o.Flow.skews
    ~assignment:(Some o.Flow.assignment)

(* ---- metadata <-> JSON ------------------------------------------------ *)

let json_of_meta m =
  Rc_util.Json.Obj
    [
      ("version", Rc_util.Json.Int m.version);
      ("bench", Rc_util.Json.String m.bench);
      ("mode", Rc_util.Json.String m.mode);
      ("iteration", Rc_util.Json.Int m.iteration);
      ("converged", Rc_util.Json.Bool m.converged);
      ("payload_bytes", Rc_util.Json.Int m.payload_bytes);
      ("payload_md5", Rc_util.Json.String m.payload_md5);
    ]

let meta_of_json j =
  let open Rc_util.Json in
  let field name conv =
    match Option.bind (member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "checkpoint metadata: missing or invalid %S" name)
  in
  let ( let* ) = Result.bind in
  let* version = field "version" to_int_opt in
  let* bench = field "bench" to_string_opt in
  let* mode = field "mode" to_string_opt in
  let* iteration = field "iteration" to_int_opt in
  let* converged = field "converged" to_bool_opt in
  let* payload_bytes = field "payload_bytes" to_int_opt in
  let* payload_md5 = field "payload_md5" to_string_opt in
  Ok { version; bench; mode; iteration; converged; payload_bytes; payload_md5 }

(* ---- save ------------------------------------------------------------- *)

let payload_of_ctx (ctx : Flow_ctx.t) =
  {
    p_cfg = ctx.Flow_ctx.cfg;
    p_arm = ctx.Flow_ctx.arm;
    p_positions = ctx.Flow_ctx.positions;
    p_skews = ctx.Flow_ctx.skews;
    p_assignment = ctx.Flow_ctx.assignment;
    p_slack = ctx.Flow_ctx.slack;
    p_stage4_slack = ctx.Flow_ctx.stage4_slack;
    p_n_pairs = ctx.Flow_ctx.n_pairs;
    p_ilp_stats = ctx.Flow_ctx.ilp_stats;
    p_iteration = ctx.Flow_ctx.iteration;
    p_history = ctx.Flow_ctx.history;
    p_best = ctx.Flow_ctx.best;
    p_current_cost = ctx.Flow_ctx.current_cost;
    p_converged = ctx.Flow_ctx.converged;
    p_trace = Flow_trace.events ctx.Flow_ctx.trace;
  }

(* the exact bytes a checkpoint file holds *)
let to_blob (ctx : Flow_ctx.t) =
  let payload = payload_of_ctx ctx in
  let blob = Marshal.to_string payload [] in
  let meta =
    {
      version = format_version;
      bench = ctx.Flow_ctx.cfg.Flow_ctx.bench.Bench_suite.bname;
      mode = mode_name ctx.Flow_ctx.cfg.Flow_ctx.mode;
      iteration = ctx.Flow_ctx.iteration;
      converged = ctx.Flow_ctx.converged;
      payload_bytes = String.length blob;
      payload_md5 = hex (Digest.string blob);
    }
  in
  let b = Buffer.create (String.length blob + 256) in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic format_version);
  Buffer.add_string b (Rc_util.Json.to_line (json_of_meta meta));
  Buffer.add_char b '\n';
  Buffer.add_string b blob;
  (meta, Buffer.contents b)

(* checkpoint files this process wrote, and writes that failed; a
   supervised worker publishes both in its shm row *)
let saves = Atomic.make 0
let save_failures = Atomic.make 0
let save_counts () = (Atomic.get saves, Atomic.get save_failures)

let save ~path (ctx : Flow_ctx.t) =
  let meta, bytes = to_blob ctx in
  (* atomic publish through a uniquely named temp file: never expose a
     torn file to a concurrent reader, leave one behind after a crash
     mid-write, or interleave two writers of the same path *)
  match
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
        ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
    in
    (* flush inside the protected body: a failed write must raise here,
       not vanish in the close and get renamed into place *)
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc bytes;
        flush oc);
    Sys.rename tmp path
  with
  | () ->
      Atomic.incr saves;
      meta
  | exception e ->
      Atomic.incr save_failures;
      raise e

(* ---- load ------------------------------------------------------------- *)

let check_magic_line first =
  match String.split_on_char ' ' first with
  | [ m; v ] when m = magic -> (
      match int_of_string_opt v with
      | Some v when v = format_version -> Ok ()
      | Some v ->
          Error
            (Printf.sprintf "checkpoint: format version %d unsupported (this build reads %d)"
               v format_version)
      | None -> Error "checkpoint: malformed version in magic line")
  | _ -> Error "checkpoint: bad magic (not a rotary checkpoint file)"

(* The one RCCKPT validator.  [next_line] yields the magic line, then
   the metadata line: [inspect] pulls them off a file channel and reads
   no further; [parse_blob] pulls them out of the whole file's bytes and
   goes on to check the payload. *)
let parse_header next_line =
  let ( let* ) = Result.bind in
  let* first = Option.to_result ~none:"checkpoint: empty file" (next_line ()) in
  let* () = check_magic_line first in
  let* meta_line =
    Option.to_result ~none:"checkpoint: truncated before metadata" (next_line ())
  in
  let* j = Rc_util.Json.of_string meta_line in
  meta_of_json j

let parse_blob s =
  let ( let* ) = Result.bind in
  let pos = ref 0 in
  let next_line () =
    if !pos >= String.length s then None
    else
      let stop = Option.value (String.index_from_opt s !pos '\n') ~default:(String.length s) in
      let line = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some line
  in
  let* meta = parse_header next_line in
  let start = min !pos (String.length s) in
  let rest = String.length s - start in
  let* () =
    if rest < meta.payload_bytes then Error "checkpoint: truncated payload"
    else if rest > meta.payload_bytes then Error "checkpoint: trailing bytes after payload"
    else Ok ()
  in
  let blob = String.sub s start meta.payload_bytes in
  let* () =
    let d = hex (Digest.string blob) in
    if d = meta.payload_md5 then Ok ()
    else Error (Printf.sprintf "checkpoint: payload digest mismatch (%s != %s)" d meta.payload_md5)
  in
  (* the digest was verified above, so unmarshalling is safe for files
     written by [save]; a hand-crafted file with a matching digest can
     still crash Marshal, which is why sockets never carry blobs *)
  Ok (meta, (Marshal.from_string (blob : string) 0 : payload))

let inspect ~path =
  match
    In_channel.with_open_bin path (fun ic -> parse_header (fun () -> In_channel.input_line ic))
  with
  | r -> r
  | exception Sys_error e -> Error e

(* re-warm the incremental caches from the restored placement: one
   analyze on identical positions primes the STA session, after which
   the resumed loop performs the same incremental cone updates an
   uninterrupted run would (the candidate-tap and assignment caches
   re-warm on their first in-loop use) *)
let warm_caches (ctx : Flow_ctx.t) =
  if ctx.Flow_ctx.cfg.Flow_ctx.incremental && Array.length ctx.Flow_ctx.positions > 0 then begin
    let session =
      Flow_cache.sta_session ctx.Flow_ctx.caches ctx.Flow_ctx.cfg.Flow_ctx.tech
        ctx.Flow_ctx.netlist
    in
    ignore (Rc_timing.Sta.analyze_batch session ~positions:ctx.Flow_ctx.positions)
  end

let ctx_of_payload ?netlist ?(warm = true) p =
  let cfg = p.p_cfg in
  let netlist =
    match netlist with
    | Some n -> n
    | None -> Bench_suite.netlist cfg.Flow_ctx.bench
  in
  let base = Flow_ctx.create ~arm:p.p_arm cfg netlist in
  let ctx =
    {
      base with
      Flow_ctx.positions = p.p_positions;
      skews = p.p_skews;
      assignment = p.p_assignment;
      slack = p.p_slack;
      stage4_slack = p.p_stage4_slack;
      n_pairs = p.p_n_pairs;
      ilp_stats = p.p_ilp_stats;
      iteration = p.p_iteration;
      history = p.p_history;
      best = p.p_best;
      current_cost = p.p_current_cost;
      converged = p.p_converged;
      trace = List.fold_left Flow_trace.record Flow_trace.empty p.p_trace;
    }
  in
  if warm then warm_caches ctx;
  ctx

let load_blob ?netlist ?warm s =
  let ( let* ) = Result.bind in
  let* meta, payload = parse_blob s in
  Ok (meta, ctx_of_payload ?netlist ?warm payload)

let load ?netlist ?warm ~path () =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> load_blob ?netlist ?warm s
  | exception Sys_error e -> Error e

(* ---- session conveniences --------------------------------------------- *)

let run_with_checkpoints ?(every = 1) ~dir ~name ?guard cfg =
  if every < 1 then invalid_arg "Checkpoint.run_with_checkpoints: every must be >= 1";
  mkdir_p dir;
  let saved = ref [] in
  let on_iteration (ctx : Flow_ctx.t) =
    let k = ctx.Flow_ctx.iteration in
    if k mod every = 0 || ctx.Flow_ctx.converged then begin
      let path = Filename.concat dir (Printf.sprintf "%s.iter-%d.ckpt" name k) in
      ignore (save ~path ctx);
      saved := (k, path) :: !saved
    end
  in
  let outcome = Flow.run ?guard ~on_iteration cfg in
  (outcome, List.rev !saved)

let resume ?guard ?on_iteration ~path () =
  match load ~path () with
  | Error e -> Error e
  | Ok (_meta, ctx) -> Ok (Flow.resume_on ?guard ?on_iteration ctx)
