(* Concurrent load generator for `rotary_cli serve`.

   Opens N client connections to a running server's Unix-domain socket
   or TCP port, pipelines a deterministic mix of requests (flow /
   sweep / status / checkpoint-inspect) across them, and measures
   client-side latency per request: write completion to response
   arrival on the monotonic clock.  Results — ok/error counts, latency
   percentiles, throughput — are printed and merged under --key of
   BENCH_results.json (schema: docs/metrics.md), read and rewritten
   with Rc_util.Json.

   Connection engine: a single thread drives every connection through
   poll(2) (evloop.ml) — nonblocking connects, per-connection
   write/read buffers — so thousands of connections (--conns 2048)
   cost one thread and no per-connection stacks, instead of the old
   thread-per-connection model that fell over around the default
   thread cap.

   Usage:
     loadgen.exe --socket PATH | --tcp HOST:PORT
                 [--conns N | -n N] [--requests TOTAL]
                 [--mix default|light|eco] [--bench NAME]
                 [--sessions N] [--edits N] [--verify-replay]
                 [--deadline-ms MS] [--out FILE.json]
                 [--key NAME] [--expect-digest HEX]
                 [--chaos-kill K --shm PATH]

   The request mix is a fixed rotation, so a given (--requests,
   --conns) pair always issues the same workload — comparable across
   runs.

   --mix eco switches to the ECO session driver: --sessions blocking
   client threads each open a held-open session (session_open), stream
   --edits deterministic seeded edit batches (session_edit), and close.
   Edit latency percentiles are reported separately from opens/closes.
   --verify-replay then opens a fresh session per finished one,
   replays the identical batches, and requires the final digest to be
   bit-identical to the incremental session's — the replay-identity
   anchor of docs/serving.md.  Session ids are stamped by the
   supervisor.

   Chaos mode (--chaos-kill K with --shm PATH) is the supervisor tier's
   CI drill: once K responses have arrived, the busiest worker process
   (highest in-flight per the shm control rows) is SIGKILLed mid-batch;
   the run still requires every request to get exactly one successful
   response, and --expect-digest HEX additionally pins every flow
   response's digest — a resumed flow must be bit-identical to an
   uninterrupted one. *)

module Json = Rc_util.Json
module Timer = Rc_util.Timer

let socket_path = ref ""
let tcp_spec = ref ""
let n_conns = ref 4
let n_requests = ref 16
let mix = ref "default"
let bench_name = ref "tiny"
let deadline_ms = ref 0.0 (* 0 = no deadline field *)
let out_path = ref "BENCH_results.json"
let out_key = ref "loadgen"
let expect_digest = ref ""
let chaos_kill = ref 0 (* 0 = no chaos *)
let shm_path = ref ""
let n_sessions = ref 4
let n_edits = ref 6
let verify_replay = ref false

let args =
  [
    ("--socket", Arg.Set_string socket_path, "PATH server Unix-domain socket");
    ("--tcp", Arg.Set_string tcp_spec, "HOST:PORT connect over TCP instead of the Unix socket");
    ("--conns", Arg.Set_int n_conns, "N concurrent client connections (default 4)");
    ("-n", Arg.Set_int n_conns, "N alias for --conns");
    ("--requests", Arg.Set_int n_requests, "N total requests across all connections (default 16)");
    ( "--mix",
      Arg.Set_string mix,
      "MIX request mix: default (flow/sweep/status), light (status-heavy, 1-in-5 flow), \
       or eco (held-open edit sessions)" );
    ("--bench", Arg.Set_string bench_name, "NAME circuit used by flow requests (default tiny)");
    ("--sessions", Arg.Set_int n_sessions, "N concurrent ECO sessions under --mix eco (default 4)");
    ("--edits", Arg.Set_int n_edits, "N edit batches per ECO session (default 6)");
    ( "--verify-replay",
      Arg.Set verify_replay,
      " replay each ECO session's batches onto a fresh session and require digest identity" );
    ( "--deadline-ms",
      Arg.Set_float deadline_ms,
      "MS attach this deadline to every async request (default: none)" );
    ("--out", Arg.Set_string out_path, "FILE merge results into this JSON file (default BENCH_results.json)");
    ("--key", Arg.Set_string out_key, "NAME top-level key to merge under (default loadgen)");
    ( "--expect-digest",
      Arg.Set_string expect_digest,
      "HEX require every flow response's digest to equal HEX (bit-identity check)" );
    ( "--chaos-kill",
      Arg.Set_int chaos_kill,
      "K after K responses, SIGKILL the busiest worker from the shm segment (needs --shm)" );
    ("--shm", Arg.Set_string shm_path, "PATH supervisor shm segment (for --chaos-kill and restart counts)");
  ]

(* deterministic mixed workloads.  "default": mostly flow, plus sweep
   and cheap status probes.  "light": status-heavy with 1-in-5 flows —
   high request counts without hours of flow compute; note that a
   supervisor answers status inline, so only the flows exercise the
   worker tier. *)
let request_body k =
  if !mix = "light" then
    if k mod 5 = 0 then [ ("op", Json.String "flow"); ("bench", Json.String !bench_name) ]
    else [ ("op", Json.String "status") ]
  else
    match k mod 4 with
    | 0 | 1 -> [ ("op", Json.String "flow"); ("bench", Json.String !bench_name) ]
    | 2 ->
        [
          ("op", Json.String "sweep");
          ("bench", Json.String !bench_name);
          ("grids", Json.List [ Json.Int 2; Json.Int 3 ]);
        ]
    | _ -> [ ("op", Json.String "status") ]

let is_flow k = if !mix = "light" then k mod 5 = 0 else k mod 4 < 2
let is_async k = if !mix = "light" then k mod 5 = 0 else k mod 4 <> 3

(* ---- chaos: SIGKILL the busiest worker once the batch is rolling ---- *)

let responses_seen = Atomic.make 0
let chaos_killed_pid = Atomic.make 0

let chaos_thread () =
  let module Shm = Rc_serve.Shm in
  match Shm.attach ~path:!shm_path () with
  | Error e ->
      Printf.eprintf "[loadgen] chaos: cannot attach %s: %s\n%!" !shm_path e;
      exit 2
  | Ok shm ->
      (* wait for the trigger count, then for a worker with work *)
      while Atomic.get responses_seen < !chaos_kill do
        Thread.delay 0.002
      done;
      let victim = ref 0 in
      while !victim = 0 do
        let rows = Shm.read_all shm in
        let busiest = ref (-1, 0) in
        Array.iter
          (fun (r : Shm.row) ->
            let c = r.Shm.control in
            if c.Shm.c_state = Shm.C_up && c.Shm.c_inflight > fst !busiest then
              busiest := (c.Shm.c_inflight, c.Shm.c_pid))
          rows;
        if fst !busiest >= 1 && snd !busiest > 0 then victim := snd !busiest
        else Thread.delay 0.002
      done;
      Printf.eprintf "[loadgen] chaos: SIGKILL worker pid %d after %d responses\n%!"
        !victim (Atomic.get responses_seen);
      (try Unix.kill !victim Sys.sigkill with Unix.Unix_error _ -> ());
      Atomic.set chaos_killed_pid !victim

let restarts_survived () =
  if !shm_path = "" then None
  else
    let module Shm = Rc_serve.Shm in
    match Shm.attach ~path:!shm_path () with
    | Error _ -> None
    | Ok shm ->
        Some
          (Array.fold_left
             (fun acc (r : Shm.row) -> acc + r.Shm.control.Shm.c_restarts)
             0 (Shm.read_all shm))

type reply = { ok : bool; error : string; latency_s : float }

let server_addr () =
  if !tcp_spec <> "" then (
    let host, port =
      match String.rindex_opt !tcp_spec ':' with
      | Some i ->
          ( String.sub !tcp_spec 0 i,
            String.sub !tcp_spec (i + 1) (String.length !tcp_spec - i - 1) )
      | None -> ("127.0.0.1", !tcp_spec)
    in
    let host = if host = "" then "127.0.0.1" else host in
    match int_of_string_opt port with
    | None ->
        prerr_endline ("loadgen: bad --tcp spec (want [HOST:]PORT): " ^ !tcp_spec);
        exit 2
    | Some p -> Unix.ADDR_INET (Unix.inet_addr_of_string host, p))
  else Unix.ADDR_UNIX !socket_path

(* ---- the poll-driven connection engine --------------------------------- *)

type cstate =
  | Backoff of float  (* connect refused (backlog burst); retry at this time *)
  | Connecting  (* nonblocking connect in flight; wait for POLLOUT *)
  | Running  (* write the request block / read response lines *)
  | Closed

type conn = {
  cid : int;
  mutable fd : Unix.file_descr;
  mutable st : cstate;
  mutable attempts : int;  (* connect attempts *)
  out : string;  (* every request line of this connection, pre-rendered *)
  marks : (int * int) array;  (* (end offset in [out], id), ascending *)
  mutable next_mark : int;
  mutable written : int;
  sent : (int, float) Hashtbl.t;  (* id -> t0, stamped at write completion *)
  flow_ids : (int, unit) Hashtbl.t;
  expected : int;
  mutable answered : int;
  inbuf : Buffer.t;  (* partial response line *)
  mutable replies : reply list;
}

let make_conn ~cid ~count ~first_id =
  let b = Buffer.create (count * 64) in
  let marks = Array.make count (0, 0) in
  let flow_ids = Hashtbl.create count in
  for i = 0 to count - 1 do
    let id = first_id + i in
    let body = request_body (cid + i) in
    let body =
      if is_async (cid + i) && !deadline_ms > 0.0 then
        body @ [ ("deadline_ms", Json.Float !deadline_ms) ]
      else body
    in
    if is_flow (cid + i) then Hashtbl.replace flow_ids id ();
    Buffer.add_string b (Json.to_line (Json.Obj (("id", Json.Int id) :: body)));
    Buffer.add_char b '\n';
    marks.(i) <- (Buffer.length b, id)
  done;
  {
    cid;
    fd = Unix.stdin;
    st = Backoff 0.0;
    attempts = 0;
    out = Buffer.contents b;
    marks;
    next_mark = 0;
    written = 0;
    sent = Hashtbl.create count;
    flow_ids;
    expected = count;
    answered = 0;
    inbuf = Buffer.create 256;
    replies = [];
  }

let max_connect_attempts = 10_000

let start_connect c =
  let addr = server_addr () in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  c.fd <- fd;
  c.attempts <- c.attempts + 1;
  match Unix.connect fd addr with
  | () -> c.st <- Running
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
      c.st <- Connecting
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EAGAIN | Unix.ECONNRESET), _, _)
    when c.attempts < max_connect_attempts ->
      (* a connect burst can momentarily overflow the listen backlog;
         back off briefly and retry *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      c.st <- Backoff (Timer.now_s () +. 0.005)
  | exception Unix.Unix_error (e, _, _) ->
      failwith
        (Printf.sprintf "connection %d: connect failed: %s" c.cid (Unix.error_message e))

let close_conn c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  c.st <- Closed

let handle_response c line now =
  if line <> "" then
    match Json.of_string line with
    | Error e -> failwith ("unparseable response: " ^ e)
    | Ok j -> (
        match Option.bind (Json.member "id" j) Json.to_int_opt with
        | None -> failwith ("response without id: " ^ line)
        | Some id -> (
            match Hashtbl.find_opt c.sent id with
            | None -> failwith (Printf.sprintf "unexpected response id %d" id)
            | Some t0 ->
                Hashtbl.remove c.sent id;
                c.answered <- c.answered + 1;
                Atomic.incr responses_seen;
                let ok =
                  match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false
                in
                let ok, error =
                  if not ok then
                    ( false,
                      Option.value
                        (Option.bind (Json.member "error" j) Json.to_string_opt)
                        ~default:"?" )
                  else if !expect_digest <> "" && Hashtbl.mem c.flow_ids id then
                    let digest =
                      Option.bind (Json.member "result" j) (Json.member "digest")
                      |> Fun.flip Option.bind Json.to_string_opt
                    in
                    match digest with
                    | Some d when d = !expect_digest -> (true, "")
                    | Some d ->
                        (false, Printf.sprintf "digest mismatch: got %s want %s" d !expect_digest)
                    | None -> (false, "flow response without result.digest")
                  else (true, "")
                in
                c.replies <- { ok; error; latency_s = now -. t0 } :: c.replies))

let chunk = Bytes.create 65536

let do_read c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
      if c.answered < c.expected then
        failwith
          (Printf.sprintf "connection %d: server closed with %d responses outstanding"
             c.cid (c.expected - c.answered))
      else close_conn c
  | n ->
      let now = Timer.now_s () in
      for i = 0 to n - 1 do
        let ch = Bytes.get chunk i in
        if ch = '\n' then (
          handle_response c (String.trim (Buffer.contents c.inbuf)) now;
          Buffer.clear c.inbuf)
        else Buffer.add_char c.inbuf ch
      done;
      if c.answered >= c.expected then close_conn c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* flush as much of the request block as the socket accepts; each
   request's t0 is stamped when its last byte enters the kernel *)
let do_write c =
  let len = String.length c.out in
  let rec go () =
    if c.written < len then
      match Unix.write_substring c.fd c.out c.written (min 65536 (len - c.written)) with
      | n ->
          let now = Timer.now_s () in
          c.written <- c.written + n;
          while
            c.next_mark < Array.length c.marks && fst c.marks.(c.next_mark) <= c.written
          do
            Hashtbl.replace c.sent (snd c.marks.(c.next_mark)) now;
            c.next_mark <- c.next_mark + 1
          done;
          if n > 0 then go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
  in
  go ()

let run_engine conns =
  let ev = Evloop.create (Array.length conns) in
  let regs = Array.make (Array.length conns) conns.(0) in
  let live () = Array.exists (fun c -> c.st <> Closed) conns in
  while live () do
    let now = Timer.now_s () in
    Array.iter
      (fun c -> match c.st with Backoff t when now >= t -> start_connect c | _ -> ())
      conns;
    Evloop.begin_round ev;
    let nreg = ref 0 in
    Array.iter
      (fun c ->
        let events =
          match c.st with
          | Connecting -> Evloop.pollout
          | Running ->
              Evloop.pollin
              lor (if c.written < String.length c.out then Evloop.pollout else 0)
          | Backoff _ | Closed -> 0
        in
        if events <> 0 then (
          let i = Evloop.add ev c.fd ~events in
          regs.(i) <- c;
          incr nreg))
      conns;
    if !nreg = 0 then Thread.delay 0.002
    else if Evloop.wait ev ~timeout_ms:100 > 0 then
      for i = 0 to !nreg - 1 do
        let c = regs.(i) in
        let r = Evloop.revents ev i in
        match c.st with
        | Connecting ->
            if r land (Evloop.pollout lor Evloop.pollerr) <> 0 then (
              match Unix.getsockopt_error c.fd with
              | None ->
                  c.st <- Running;
                  do_write c
              | Some (Unix.ECONNREFUSED | Unix.EAGAIN | Unix.ECONNRESET)
                when c.attempts < max_connect_attempts ->
                  (try Unix.close c.fd with Unix.Unix_error _ -> ());
                  c.st <- Backoff (Timer.now_s () +. 0.005)
              | Some e ->
                  failwith
                    (Printf.sprintf "connection %d: connect failed: %s" c.cid
                       (Unix.error_message e)))
        | Running ->
            if r land Evloop.pollout <> 0 then do_write c;
            if c.st = Running && r land (Evloop.pollin lor Evloop.pollerr) <> 0 then
              do_read c
        | Backoff _ | Closed -> ()
      done
  done;
  Array.to_list conns |> List.concat_map (fun c -> c.replies)

(* ---- ECO session driver (--mix eco) ------------------------------------ *)

(* The poll engine pre-renders every request byte, which cannot work
   for sessions: each edit needs the session id from the open response
   and must wait for its predecessor (one in-flight edit per session
   keeps seq = applied+1 on every tier).  So the eco mix runs one
   blocking thread per session over its own connection. *)

(* Lehmer MINSTD: deterministic per (seed), so --verify-replay can
   re-derive the exact batches without shipping them around. *)
type rng = { mutable s : int }

let rng_make seed =
  let s = (seed * 7919) + 104729 in
  { s = (if s mod 0x7FFFFFFF = 0 then 1 else s mod 0x7FFFFFFF) }

let rng_next r =
  r.s <- r.s * 48271 mod 0x7FFFFFFF;
  r.s

let rng_int r n = rng_next r mod max 1 n
let rng_float r = float_of_int (rng_next r) /. 2147483647.0

(* geometry the edit generator needs, straight from the open response *)
type eco_info = {
  i_n_cells : int;
  i_n_ffs : int;
  i_n_rings : int;
  i_period : float;
  i_chip : float * float * float * float;
}

let gen_edit rng info =
  let xmin, ymin, xmax, ymax = info.i_chip in
  let w = xmax -. xmin and h = ymax -. ymin in
  match rng_int rng 4 with
  | 0 ->
      Json.Obj
        [
          ("kind", Json.String "move");
          ("cell", Json.Int (rng_int rng info.i_n_cells));
          ("x", Json.Float (xmin +. (rng_float rng *. w)));
          ("y", Json.Float (ymin +. (rng_float rng *. h)));
        ]
  | 1 ->
      let bx = xmin +. (rng_float rng *. w *. 0.8) in
      let by = ymin +. (rng_float rng *. h *. 0.8) in
      Json.Obj
        [
          ("kind", Json.String "shift");
          ("xmin", Json.Float bx);
          ("ymin", Json.Float by);
          ("xmax", Json.Float (bx +. (w *. 0.2)));
          ("ymax", Json.Float (by +. (h *. 0.2)));
          ("dx", Json.Float ((rng_float rng -. 0.5) *. w *. 0.04));
          ("dy", Json.Float ((rng_float rng -. 0.5) *. h *. 0.04));
        ]
  | 2 when info.i_n_ffs > 0 && info.i_n_rings > 0 ->
      Json.Obj
        [
          ("kind", Json.String "retarget");
          ("ff", Json.Int (rng_int rng info.i_n_ffs));
          ("ring", Json.Int (rng_int rng info.i_n_rings));
        ]
  | _ ->
      (* absolute target period in [p0, 1.2 p0] so a replay that
         regenerates the stream lands on the same value regardless of
         the session's current period *)
      Json.Obj
        [
          ("kind", Json.String "period");
          ("period", Json.Float (info.i_period *. (1.0 +. (0.2 *. rng_float rng))));
        ]

let gen_batch rng info = List.init (1 + rng_int rng 3) (fun _ -> gen_edit rng info)

(* one blocking round trip: write the request line, read lines until
   the matching id answers.  Latency is write completion to response
   arrival, same clock discipline as the poll engine. *)
let eco_roundtrip fd ic ~id body =
  let line = Json.to_line (Json.Obj (("id", Json.Int id) :: body)) ^ "\n" in
  let rec write_all off =
    if off < String.length line then
      write_all (off + Unix.write_substring fd line off (String.length line - off))
  in
  write_all 0;
  let t0 = Timer.now_s () in
  let rec read_reply () =
    let l = String.trim (input_line ic) in
    if l = "" then read_reply ()
    else
      match Json.of_string l with
      | Error e -> failwith ("unparseable response: " ^ e)
      | Ok j -> (
          match Option.bind (Json.member "id" j) Json.to_int_opt with
          | Some i when i = id -> j
          | _ -> read_reply ())
  in
  let j = read_reply () in
  Atomic.incr responses_seen;
  let lat = Timer.now_s () -. t0 in
  match Json.member "ok" j with
  | Some (Json.Bool true) -> (
      match Json.member "result" j with
      | Some r -> (r, lat)
      | None -> failwith "ok response without result")
  | _ ->
      failwith
        (Option.value
           (Option.bind (Json.member "error" j) Json.to_string_opt)
           ~default:"server error")

let eco_open fd ic ~id =
  let r, lat =
    eco_roundtrip fd ic ~id
      [ ("op", Json.String "session_open"); ("bench", Json.String !bench_name) ]
  in
  let int_of name =
    match Option.bind (Json.member name r) Json.to_int_opt with
    | Some v -> v
    | None -> failwith (Printf.sprintf "session_open response missing %S" name)
  in
  let num_of ?inside name =
    let j = match inside with Some k -> Option.value (Json.member k r) ~default:Json.Null | None -> r in
    match Option.bind (Json.member name j) Json.to_float_opt with
    | Some v -> v
    | None -> failwith (Printf.sprintf "session_open response missing %S" name)
  in
  let digest =
    match Option.bind (Json.member "digest" r) Json.to_string_opt with
    | Some d -> d
    | None -> failwith "session_open response missing \"digest\""
  in
  let info =
    {
      i_n_cells = int_of "n_cells";
      i_n_ffs = int_of "n_ffs";
      i_n_rings = int_of "n_rings";
      i_period = num_of "clock_period_ps";
      i_chip =
        ( num_of ~inside:"chip" "xmin",
          num_of ~inside:"chip" "ymin",
          num_of ~inside:"chip" "xmax",
          num_of ~inside:"chip" "ymax" );
    }
  in
  (int_of "session", info, digest, lat)

let eco_edit fd ic ~id ~sid batch =
  let r, lat =
    eco_roundtrip fd ic ~id
      [
        ("op", Json.String "session_edit");
        ("session", Json.Int sid);
        ("edits", Json.List batch);
      ]
  in
  match Option.bind (Json.member "digest" r) Json.to_string_opt with
  | Some d -> (d, lat)
  | None -> failwith "session_edit response missing \"digest\""

let eco_close fd ic ~id ~sid =
  ignore
    (eco_roundtrip fd ic ~id
       [ ("op", Json.String "session_close"); ("session", Json.Int sid) ])

(* drive session [idx]: open, stream the seeded batches, close; then
   optionally replay the identical stream on a fresh session and pin
   the final digest.  Returns (edit latencies, error strings, replays). *)
let eco_session idx =
  let edit_lats = ref [] and errors = ref [] and replays = ref 0 in
  let with_conn f =
    let addr = server_addr () in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    let rec connect tries =
      match Unix.connect fd addr with
      | () -> ()
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
        when tries < 1000 ->
          Thread.delay 0.005;
          connect (tries + 1)
    in
    connect 0;
    let ic = Unix.in_channel_of_descr fd in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd ic)
  in
  (* run one full session with the batch stream of [idx]; returns the
     final digest.  [record] controls whether edit latencies count —
     replay traffic verifies, it does not skew the percentiles. *)
  let run_stream ~record fd ic ~first_id =
    let sid, info, digest0, _open_lat = eco_open fd ic ~id:first_id in
    let rng = rng_make ((idx * 131) + 7) in
    let digest = ref digest0 in
    for b = 1 to !n_edits do
      let batch = gen_batch rng info in
      let d, lat = eco_edit fd ic ~id:(first_id + b) ~sid batch in
      digest := d;
      if record then edit_lats := lat :: !edit_lats
    done;
    eco_close fd ic ~id:(first_id + !n_edits + 1) ~sid;
    !digest
  in
  (try
     let base = (idx * 100000) + 1 in
     let final = with_conn (fun fd ic -> run_stream ~record:true fd ic ~first_id:base) in
     if !verify_replay then begin
       let replayed =
         with_conn (fun fd ic -> run_stream ~record:false fd ic ~first_id:(base + 50000))
       in
       incr replays;
       if replayed <> final then
         errors :=
           Printf.sprintf "session %d: replay digest %s <> incremental %s" idx replayed
             final
           :: !errors
     end
   with
  | Failure e -> errors := Printf.sprintf "session %d: %s" idx e :: !errors
  | End_of_file -> errors := Printf.sprintf "session %d: connection closed" idx :: !errors
  | Unix.Unix_error (e, fn, _) ->
      errors := Printf.sprintf "session %d: %s: %s" idx fn (Unix.error_message e) :: !errors);
  (!edit_lats, !errors, !replays)

let run_eco () =
  let t0 = Timer.now_s () in
  let n = max 1 !n_sessions in
  let parts = Array.make n ([], [], 0) in
  let slots =
    Array.init n
      (fun idx -> Thread.create (fun () -> parts.(idx) <- eco_session idx) ())
  in
  Array.iter Thread.join slots;
  let wall_s = Timer.now_s () -. t0 in
  let lats =
    Array.to_list parts |> List.concat_map (fun (l, _, _) -> l) |> Array.of_list
  in
  let errors = Array.to_list parts |> List.concat_map (fun (_, e, _) -> e) in
  let replays = Array.fold_left (fun acc (_, _, r) -> acc + r) 0 parts in
  Array.sort compare lats;
  (wall_s, lats, errors, replays)

(* ---- reporting --------------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

(* merge under --key.  [sub] nests one level deeper — KEY.SUB —
   preserving the sibling fields of KEY, which is how the eco mix lands
   under service.eco without clobbering the flow numbers. *)
let merge_results ?sub doc =
  let existing =
    if Sys.file_exists !out_path then
      let ic = open_in_bin !out_path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      match Json.of_string s with Ok (Json.Obj fields) -> fields | _ -> []
    else []
  in
  let obj_fields = function Some (Json.Obj fields) -> fields | _ -> [] in
  let put fields name v = List.remove_assoc name fields @ [ (name, v) ] in
  let doc =
    match sub with
    | None -> doc
    | Some s -> Json.Obj (put (obj_fields (List.assoc_opt !out_key existing)) s doc)
  in
  let fields = put existing !out_key doc in
  Json.to_file !out_path (Json.Obj fields)

(* chaos verdict shared by both drivers: every request must still be
   answered (checked by each driver), and the kill must actually have
   landed for the drill to count *)
let chaos_verdict () =
  if !chaos_kill = 0 then true
  else begin
    (* the kill races with batch completion; give it a moment to land *)
    let deadline = Timer.now_s () +. 2.0 in
    while Atomic.get chaos_killed_pid = 0 && Timer.now_s () < deadline do
      Thread.delay 0.01
    done;
    let pid = Atomic.get chaos_killed_pid in
    if pid = 0 then
      Printf.eprintf "[loadgen] chaos: batch finished before any worker could be killed\n";
    pid <> 0
  end

let restart_fields () =
  match restarts_survived () with
  | None -> []
  | Some n ->
      Printf.printf "[loadgen] restarts survived: %d\n" n;
      [ ("restarts_survived", Json.Int n) ]

let chaos_fields () =
  if !chaos_kill = 0 then []
  else
    [
      ( "chaos",
        Json.Obj
          [
            ("trigger_responses", Json.Int !chaos_kill);
            ("killed_pid", Json.Int (Atomic.get chaos_killed_pid));
          ] );
    ]

let pcts = [ (0.50, "p50"); (0.90, "p90"); (0.95, "p95"); (0.99, "p99") ]

let latency_fields lats =
  List.map (fun (p, name) -> (name ^ "_s", Json.Float (percentile lats p))) pcts
  @ [
      ( "max_s",
        Json.Float (if Array.length lats = 0 then nan else lats.(Array.length lats - 1))
      );
    ]

let main_eco () =
  let sessions = max 1 !n_sessions in
  let wall_s, lats, errors, replays = run_eco () in
  List.iter (fun e -> Printf.eprintf "[loadgen] eco error: %s\n" e) errors;
  let lat_fields = latency_fields lats in
  Printf.printf
    "[loadgen] eco: %d sessions x %d edits: %d edits timed, %d errors, %.2f s wall\n"
    sessions !n_edits (Array.length lats) (List.length errors) wall_s;
  List.iter
    (function
      | name, Json.Float v -> Printf.printf "[loadgen]   edit %-6s %8.4f s\n" name v
      | _ -> ())
    lat_fields;
  if !verify_replay then
    Printf.printf "[loadgen] replay: %d/%d sessions digest-identical\n"
      (replays - List.length errors |> max 0)
      sessions;
  let chaos_ok = chaos_verdict () in
  let doc =
    Json.Obj
      ([
         ("sessions", Json.Int sessions);
         ("edits_per_session", Json.Int !n_edits);
         ("edits_timed", Json.Int (Array.length lats));
         ("errors", Json.Int (List.length errors));
         ("wall_s", Json.Float wall_s);
         ( "edits_per_s",
           Json.Float (float_of_int (Array.length lats) /. Float.max wall_s 1e-9) );
         ("replayed", Json.Int replays);
         ("edit_latency", Json.Obj lat_fields);
       ]
      @ restart_fields () @ chaos_fields ())
  in
  merge_results ~sub:"eco" doc;
  Printf.printf "[loadgen] merged into %s (key %s.eco)\n" !out_path !out_key;
  if errors <> [] || (not chaos_ok) || (!verify_replay && replays < sessions) then exit 1

let () =
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "loadgen.exe (--socket PATH | --tcp HOST:PORT) [--conns N] [--requests TOTAL]";
  if !socket_path = "" && !tcp_spec = "" then (
    prerr_endline "loadgen: --socket or --tcp is required";
    exit 2);
  if !chaos_kill > 0 && !shm_path = "" then (
    prerr_endline "loadgen: --chaos-kill needs --shm PATH";
    exit 2);
  if !chaos_kill > 0 then ignore (Thread.create chaos_thread ());
  if !mix = "eco" then (
    main_eco ();
    exit 0);
  let conns = max 1 !n_conns and total = max 1 !n_requests in
  (* split TOTAL across connections, remainder to the first ones *)
  let share c = (total / conns) + if c < total mod conns then 1 else 0 in
  let t0 = Timer.now_s () in
  let cs =
    Array.init conns (fun c ->
        make_conn ~cid:c ~count:(share c) ~first_id:((c * total) + 1))
  in
  let replies = run_engine cs in
  let wall_s = Timer.now_s () -. t0 in
  let n_ok = List.length (List.filter (fun r -> r.ok) replies) in
  let n_err = List.length replies - n_ok in
  List.iter
    (fun r -> if not r.ok then Printf.eprintf "[loadgen] error response: %s\n" r.error)
    replies;
  let lats =
    List.map (fun r -> r.latency_s) (List.filter (fun r -> r.ok) replies)
    |> Array.of_list
  in
  Array.sort compare lats;
  let lat_fields = latency_fields lats in
  Printf.printf "[loadgen] %d requests over %d connections: %d ok, %d errors, %.2f s wall\n"
    (List.length replies) conns n_ok n_err wall_s;
  List.iter
    (function name, Json.Float v -> Printf.printf "[loadgen]   %-6s %8.4f s\n" name v | _ -> ())
    lat_fields;
  Printf.printf "[loadgen] throughput %.2f req/s\n"
    (float_of_int (List.length replies) /. Float.max wall_s 1e-9);
  let chaos_ok = chaos_verdict () in
  let doc =
    Json.Obj
      ([
         ("connections", Json.Int conns);
         ("requests", Json.Int (List.length replies));
         ("ok", Json.Int n_ok);
         ("errors", Json.Int n_err);
         ("wall_s", Json.Float wall_s);
         ("throughput_per_s", Json.Float (float_of_int (List.length replies) /. Float.max wall_s 1e-9));
         ("latency", Json.Obj lat_fields);
       ]
      @ restart_fields () @ chaos_fields ())
  in
  merge_results doc;
  Printf.printf "[loadgen] merged into %s (key %s)\n" !out_path !out_key;
  if n_err > 0 || List.length replies <> total || not chaos_ok then exit 1
