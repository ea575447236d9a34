(* Shared-memory counter segment: per-worker metrics of the supervised
   service tier.

   The segment is a plain file mapped MAP_SHARED by every party: the
   supervisor creates it and owns the header plus one *control* region
   per worker (pid, restarts, dispatch state); each worker process owns
   the *worker* region of its slot (liveness heartbeat, scheduler and
   checkpoint counters, the fixed Rc_obs.Metrics export table).
   `rotary_cli top` maps the file read-only.  Job and response bodies
   never pass through here: they ride each worker's NDJSON socketpair.

   Counter-region consistency is seqlock-style, per region: the writer
   bumps the region's sequence word to odd, writes the fields, bumps it
   back to even; readers retry while the sequence is odd or changed
   across their read.  Every cell access goes through C stubs with
   acquire/release ordering (shm_stubs.c), so the protocol is sound
   across processes, not just on TSO hardware.  A reader that exhausts
   its retry budget — e.g. the writer was SIGKILLed mid-write, leaving
   the sequence odd forever — returns the torn row flagged
   [consistent = false] instead of spinning.

   Layout v5 (documented field-by-field in docs/operations.md; all cells
   are native 63-bit OCaml ints, 8 bytes each):

     page 0              header (write-once at create; tcp_port is the
                         mutable exception)
     page 1 + i          slot for worker i:
       words 0..255      worker region   (written by worker i)
       words 256..511    control region  (written by the supervisor)

   [layout_version] bumps on any relayout; [attach] rejects other
   versions (and foreign files) with a descriptive error. *)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

external get_acq : ba -> int -> int = "rc_shm_get" [@@noalloc]
external set_rel : ba -> int -> int -> unit = "rc_shm_set" [@@noalloc]

let layout_version = 5
let magic = 0x4745534d48534352 (* the bytes "RCSHMSEG", read as a little-endian int *)
let slot_words = 512
let header_words = 512
let control_base = 256 (* word offset of the control region inside a slot *)
let n_solver = Array.length Rc_obs.Metrics.export_names

(* header word indices *)
let h_magic = 0
let h_version = 1
let h_workers = 2
let h_slot_words = 3
let h_pid = 4
let h_created_s = 5
let h_tcp_port = 6
let h_solver_fields = 7

type t = { ba : ba; n_workers : int; path : string }

(* ---- rows -------------------------------------------------------------- *)

type worker_state = W_starting | W_serving | W_draining | W_stopped

let worker_state_code = function
  | W_starting -> 0
  | W_serving -> 1
  | W_draining -> 2
  | W_stopped -> 3

let worker_state_of_code = function
  | 0 -> W_starting
  | 1 -> W_serving
  | 2 -> W_draining
  | _ -> W_stopped

let worker_state_name = function
  | W_starting -> "starting"
  | W_serving -> "serving"
  | W_draining -> "draining"
  | W_stopped -> "stopped"

type control_state = C_down | C_up | C_draining

let control_state_code = function C_down -> 0 | C_up -> 1 | C_draining -> 2
let control_state_of_code = function 1 -> C_up | 2 -> C_draining | _ -> C_down

let control_state_name = function
  | C_down -> "down"
  | C_up -> "up"
  | C_draining -> "draining"

type worker_row = {
  pid : int;
  state : worker_state;
  started_ns : int;
  heartbeat_ns : int;
  requests : int;
  responses : int;
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  rejected : int;
  queue_depth : int;
  running : int;
  job_wall_ms : int;
  shm_fallbacks : int;
  ckpt_saves : int;
  ckpt_skips : int;
  solver : int array;  (* Rc_obs.Metrics.export_names order *)
}

let empty_worker_row =
  {
    pid = 0;
    state = W_starting;
    started_ns = 0;
    heartbeat_ns = 0;
    requests = 0;
    responses = 0;
    submitted = 0;
    completed = 0;
    failed = 0;
    cancelled = 0;
    rejected = 0;
    queue_depth = 0;
    running = 0;
    job_wall_ms = 0;
    shm_fallbacks = 0;
    ckpt_saves = 0;
    ckpt_skips = 0;
    solver = Array.make n_solver 0;
  }

type control_row = {
  c_pid : int;
  c_state : control_state;
  c_restarts : int;
  c_spawned_ns : int;
  c_inflight : int;
  c_redispatched : int;
  c_resumed : int;
}

type row = {
  worker : worker_row;
  control : control_row;
  w_consistent : bool;
  c_consistent : bool;
}

(* ---- mapping ----------------------------------------------------------- *)

let total_words n_workers = header_words + (n_workers * slot_words)

let map_fd fd ~words =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| words |])

(* A fresh inode every time, built in a uniquely named temp file and
   renamed into place once its header is written: a process still
   mapping the segment a previous supervisor left at [path] (a worker
   orphaned by a SIGKILL, finishing its last job) keeps writing to the
   old inode, never into this one, and an attach never sees a
   half-written header. *)
let create ~path ~n_workers () =
  if n_workers < 1 then invalid_arg "Shm.create: n_workers must be >= 1";
  let words = total_words n_workers in
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match
    (* O_RDWR: Unix.map_file maps the pages PROT_READ|PROT_WRITE *)
    let fd = Unix.openfile tmp [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd (words * 8);
        let ba = map_fd fd ~words in
        set_rel ba h_magic magic;
        set_rel ba h_version layout_version;
        set_rel ba h_workers n_workers;
        set_rel ba h_slot_words slot_words;
        set_rel ba h_pid (Unix.getpid ());
        set_rel ba h_created_s (int_of_float (Unix.time ()));
        set_rel ba h_tcp_port 0;
        set_rel ba h_solver_fields n_solver;
        Unix.rename tmp path;
        { ba; n_workers; path })
  with
  | t -> t
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let attach ~path () =
  (* O_RDWR even for readers: Unix.map_file always maps the pages
     PROT_READ|PROT_WRITE, so a read-only fd is rejected with EACCES *)
  match Unix.openfile path [ Unix.O_RDWR ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let bytes = (Unix.fstat fd).Unix.st_size in
          if bytes < header_words * 8 then
            Error (Printf.sprintf "%s: too small for a segment header (%d bytes)" path bytes)
          else
            let header = map_fd fd ~words:header_words in
            if get_acq header h_magic <> magic then
              Error (Printf.sprintf "%s: not a rotary shm segment (bad magic)" path)
            else if get_acq header h_version <> layout_version then
              Error
                (Printf.sprintf "%s: layout version %d, this build reads %d" path
                   (get_acq header h_version) layout_version)
            else
              let n_workers = get_acq header h_workers in
              if n_workers < 1 || n_workers > 4096 then
                Error (Printf.sprintf "%s: implausible worker count %d" path n_workers)
              else
                let words = total_words n_workers in
                if bytes < words * 8 then
                  Error
                    (Printf.sprintf "%s: truncated (%d bytes < %d expected)" path bytes
                       (words * 8))
                else Ok { ba = map_fd fd ~words; n_workers; path })

let n_workers t = t.n_workers
let path t = t.path
let supervisor_pid t = get_acq t.ba h_pid
let created_s t = get_acq t.ba h_created_s

let tcp_port t = match get_acq t.ba h_tcp_port with 0 -> None | p -> Some p
let set_tcp_port t port = set_rel t.ba h_tcp_port port

let slot_base t i =
  if i < 0 || i >= t.n_workers then invalid_arg "Shm: slot out of range";
  header_words + (i * slot_words)

(* ---- seqlock write ----------------------------------------------------- *)

(* One writer per region by construction (the worker's heartbeat thread;
   the supervisor under its state lock), so the sequence word needs no
   CAS — just the odd/even protocol. *)
let write_region ba ~base fill =
  set_rel ba base (get_acq ba base + 1);
  fill ();
  set_rel ba base (get_acq ba base + 1)

let write_worker t ~slot (r : worker_row) =
  let base = slot_base t slot in
  let ba = t.ba in
  write_region ba ~base (fun () ->
      set_rel ba (base + 1) r.pid;
      set_rel ba (base + 2) (worker_state_code r.state);
      set_rel ba (base + 3) r.started_ns;
      set_rel ba (base + 4) r.heartbeat_ns;
      set_rel ba (base + 5) r.requests;
      set_rel ba (base + 6) r.responses;
      set_rel ba (base + 7) r.submitted;
      set_rel ba (base + 8) r.completed;
      set_rel ba (base + 9) r.failed;
      set_rel ba (base + 10) r.cancelled;
      set_rel ba (base + 11) r.rejected;
      set_rel ba (base + 12) r.queue_depth;
      set_rel ba (base + 13) r.running;
      set_rel ba (base + 14) r.job_wall_ms;
      set_rel ba (base + 15) r.shm_fallbacks;
      set_rel ba (base + 16) r.ckpt_saves;
      set_rel ba (base + 17) r.ckpt_skips;
      set_rel ba (base + 18) (Array.length r.solver);
      (* a loop, not Array.iteri: nothing is allocated between the two
         sequence bumps, so the writer never starts a stop-the-world
         minor GC mid-write and leaves readers spinning on an odd
         sequence (on a shared core, for the whole time slice) *)
      for k = 0 to Array.length r.solver - 1 do
        set_rel ba (base + 19 + k) r.solver.(k)
      done)

let write_control t ~slot (r : control_row) =
  let base = slot_base t slot + control_base in
  let ba = t.ba in
  write_region ba ~base (fun () ->
      set_rel ba (base + 1) r.c_pid;
      set_rel ba (base + 2) (control_state_code r.c_state);
      set_rel ba (base + 3) r.c_restarts;
      set_rel ba (base + 4) r.c_spawned_ns;
      set_rel ba (base + 5) r.c_inflight;
      set_rel ba (base + 6) r.c_redispatched;
      set_rel ba (base + 7) r.c_resumed)

(* ---- seqlock read ------------------------------------------------------ *)

let max_read_retries = 1000

(* read [len] words after the sequence word at [base] into a consistent
   snapshot; [false] marks a torn read (retry budget exhausted, e.g. a
   writer killed mid-write left the sequence odd) *)
let read_region ba ~base ~len =
  let buf = Array.make len 0 in
  let fill () =
    for k = 0 to len - 1 do
      buf.(k) <- get_acq ba (base + 1 + k)
    done
  in
  let rec go tries =
    let s1 = get_acq ba base in
    if s1 land 1 = 0 then begin
      fill ();
      if get_acq ba base = s1 then (buf, true)
      else if tries >= max_read_retries then (buf, false)
      else begin
        Domain.cpu_relax ();
        go (tries + 1)
      end
    end
    else if tries >= max_read_retries then begin
      fill ();
      (buf, false)
    end
    else begin
      Domain.cpu_relax ();
      go (tries + 1)
    end
  in
  go 0

let worker_words = 18 + n_solver
let control_words = 7

let read_row t ~slot =
  let base = slot_base t slot in
  let w, w_consistent = read_region t.ba ~base ~len:worker_words in
  let c, c_consistent = read_region t.ba ~base:(base + control_base) ~len:control_words in
  let n_solver_in = min n_solver (max 0 w.(17)) in
  {
    worker =
      {
        pid = w.(0);
        state = worker_state_of_code w.(1);
        started_ns = w.(2);
        heartbeat_ns = w.(3);
        requests = w.(4);
        responses = w.(5);
        submitted = w.(6);
        completed = w.(7);
        failed = w.(8);
        cancelled = w.(9);
        rejected = w.(10);
        queue_depth = w.(11);
        running = w.(12);
        job_wall_ms = w.(13);
        shm_fallbacks = w.(14);
        ckpt_saves = w.(15);
        ckpt_skips = w.(16);
        solver = Array.init n_solver (fun k -> if k < n_solver_in then w.(18 + k) else 0);
      };
    control =
      {
        c_pid = c.(0);
        c_state = control_state_of_code c.(1);
        c_restarts = c.(2);
        c_spawned_ns = c.(3);
        c_inflight = c.(4);
        c_redispatched = c.(5);
        c_resumed = c.(6);
      };
    w_consistent;
    c_consistent;
  }

let read_all t = Array.init t.n_workers (fun i -> read_row t ~slot:i)

(* ---- rendering --------------------------------------------------------- *)

let json_of_row i (r : row) =
  let module J = Rc_util.Json in
  J.Obj
    [
      ("worker", J.Int i);
      ("consistent", J.Bool (r.w_consistent && r.c_consistent));
      ("pid", J.Int r.worker.pid);
      ("state", J.String (worker_state_name r.worker.state));
      ("heartbeat_ns", J.Int r.worker.heartbeat_ns);
      ("requests", J.Int r.worker.requests);
      ("responses", J.Int r.worker.responses);
      ( "checkpoints",
        J.Obj [ ("saves", J.Int r.worker.ckpt_saves); ("skips", J.Int r.worker.ckpt_skips) ] );
      ( "jobs",
        J.Obj
          [
            ("submitted", J.Int r.worker.submitted);
            ("completed", J.Int r.worker.completed);
            ("failed", J.Int r.worker.failed);
            ("cancelled", J.Int r.worker.cancelled);
            ("rejected", J.Int r.worker.rejected);
            ("pending", J.Int r.worker.queue_depth);
            ("running", J.Int r.worker.running);
            ("wall_ms", J.Int r.worker.job_wall_ms);
          ] );
      ( "solver",
        J.Obj
          (Array.to_list
             (Array.mapi
                (fun k name -> (name, J.Int r.worker.solver.(k)))
                Rc_obs.Metrics.export_names)) );
      ( "control",
        J.Obj
          [
            ("pid", J.Int r.control.c_pid);
            ("state", J.String (control_state_name r.control.c_state));
            ("restarts", J.Int r.control.c_restarts);
            ("inflight", J.Int r.control.c_inflight);
            ("redispatched", J.Int r.control.c_redispatched);
            ("resumed", J.Int r.control.c_resumed);
          ] );
    ]

let to_json t =
  let module J = Rc_util.Json in
  J.Obj
    [
      ("path", J.String t.path);
      ("layout_version", J.Int layout_version);
      ("supervisor_pid", J.Int (supervisor_pid t));
      ("created_unix_s", J.Int (created_s t));
      ("tcp_port", match tcp_port t with None -> J.Null | Some p -> J.Int p);
      ("workers", J.List (Array.to_list (Array.mapi json_of_row (read_all t))));
    ]
