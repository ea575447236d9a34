(* Tests for the flow service: checkpoint save/load/resume
   bit-identity, the deadline-aware scheduler, the wire protocol, the
   worker's request handling and ECO sessions driven in-process, the shm
   counter segment, and the supervisor driven over its socket. *)

open Rc_core
open Rc_serve
module Json = Rc_util.Json

let with_jobs n f =
  Rc_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Rc_par.Pool.set_jobs 1) f

let temp_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rc_serve_test_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let tiny_cfg = Flow.default_config ~mode:Flow.Netflow Bench_suite.tiny

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* ---- checkpoint round-trip -------------------------------------------- *)

(* The acceptance criterion: save at iteration k, reload, finish — the
   final placement/skews/assignment must equal the uninterrupted run's,
   for jobs in {1, 2, 4}. *)
let test_checkpoint_bit_identity () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let uninterrupted = Flow.run tiny_cfg in
          let d0 = Checkpoint.digest_of_outcome uninterrupted in
          let _, checkpoints =
            Checkpoint.run_with_checkpoints ~every:1 ~dir:temp_dir
              ~name:(Printf.sprintf "bitid-j%d" jobs) tiny_cfg
          in
          Alcotest.(check bool)
            "several checkpoints written" true
            (List.length checkpoints >= 2);
          (* resume from every saved boundary, not just one *)
          List.iter
            (fun (k, path) ->
              match Checkpoint.resume ~path () with
              | Error e -> Alcotest.failf "resume iter %d: %s" k e
              | Ok resumed ->
                  Alcotest.(check string)
                    (Printf.sprintf "digest after resume from iter %d (jobs=%d)" k jobs)
                    d0
                    (Checkpoint.digest_of_outcome resumed);
                  Alcotest.(check bool)
                    (Printf.sprintf "final snapshot equal (iter %d, jobs=%d)" k jobs)
                    true
                    (resumed.Flow.final = uninterrupted.Flow.final);
                  Alcotest.(check bool)
                    (Printf.sprintf "history equal (iter %d, jobs=%d)" k jobs)
                    true
                    (resumed.Flow.history = uninterrupted.Flow.history))
            checkpoints))
    [ 1; 2; 4 ]

(* a checkpoint directory whose parents do not exist yet is created
   whole, and what lands there resumes to the uninterrupted digest *)
let test_checkpoint_creates_parents () =
  let dir = List.fold_left Filename.concat temp_dir [ "nested"; "a"; "b" ] in
  let d0 = Checkpoint.digest_of_outcome (Flow.run tiny_cfg) in
  let _, checkpoints = Checkpoint.run_with_checkpoints ~every:1 ~dir ~name:"nested" tiny_cfg in
  Alcotest.(check bool) "several checkpoints written" true (List.length checkpoints >= 2);
  List.iter
    (fun (k, path) ->
      Alcotest.(check string)
        (Printf.sprintf "iter %d under the new directory" k)
        (Filename.concat dir (Printf.sprintf "nested.iter-%d.ckpt" k))
        path;
      Alcotest.(check bool) (Printf.sprintf "iter %d file exists" k) true (Sys.file_exists path))
    checkpoints;
  let k, path = List.nth checkpoints (List.length checkpoints / 2) in
  match Checkpoint.resume ~path () with
  | Error e -> Alcotest.failf "resume iter %d: %s" k e
  | Ok resumed ->
      Alcotest.(check string) "resumed digest" d0 (Checkpoint.digest_of_outcome resumed)

let test_checkpoint_inspect () =
  let _, checkpoints =
    Checkpoint.run_with_checkpoints ~every:1 ~dir:temp_dir ~name:"inspect" tiny_cfg
  in
  let k, path = List.hd checkpoints in
  match Checkpoint.inspect ~path with
  | Error e -> Alcotest.fail e
  | Ok meta ->
      Alcotest.(check int) "version" Checkpoint.format_version meta.Checkpoint.version;
      Alcotest.(check string) "bench" "tiny" meta.Checkpoint.bench;
      Alcotest.(check string) "mode" "netflow" meta.Checkpoint.mode;
      Alcotest.(check int) "iteration" k meta.Checkpoint.iteration;
      Alcotest.(check bool) "payload non-empty" true (meta.Checkpoint.payload_bytes > 0)

(* every checkpoint file written counts once; a write that cannot land
   (its directory is gone) raises and counts as a failure *)
let test_checkpoint_save_counts () =
  let saves0, failures0 = Checkpoint.save_counts () in
  let _, checkpoints =
    Checkpoint.run_with_checkpoints ~every:1 ~dir:temp_dir ~name:"counts" tiny_cfg
  in
  let saves1, failures1 = Checkpoint.save_counts () in
  Alcotest.(check int) "one count per file" (List.length checkpoints) (saves1 - saves0);
  Alcotest.(check int) "no failures" failures0 failures1;
  let _, ctx = Result.get_ok (Checkpoint.load ~path:(snd (List.hd checkpoints))) in
  (match Checkpoint.save ~path:(Filename.concat temp_dir "no-such-dir/x.ckpt") ctx with
  | _ -> Alcotest.fail "save into a missing directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check (pair int int)) "failure counted" (saves1, failures1 + 1)
    (Checkpoint.save_counts ())

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check_load_error name path expect =
  match Checkpoint.load ~path with
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S (got %S)" name expect e)
        true (contains e expect)

let test_checkpoint_rejects_corruption () =
  let _, checkpoints =
    Checkpoint.run_with_checkpoints ~every:1 ~dir:temp_dir ~name:"corrupt" tiny_cfg
  in
  let _, path = List.hd checkpoints in
  let valid = read_file path in
  (* not a checkpoint at all *)
  let p = Filename.concat temp_dir "bad-magic.ckpt" in
  write_file p ("JUNK 1\n" ^ valid);
  check_load_error "bad magic" p "bad magic";
  (* future format version: swap the magic line, keep the rest *)
  let p = Filename.concat temp_dir "bad-version.ckpt" in
  let nl = String.index valid '\n' in
  write_file p ("RCCKPT 99" ^ String.sub valid nl (String.length valid - nl));
  check_load_error "unsupported version" p "version 99 unsupported";
  (* version 1, whose trace events had no pool wall: refused, not
     unmarshalled into the wrong record *)
  let p = Filename.concat temp_dir "version-1.ckpt" in
  write_file p ("RCCKPT 1" ^ String.sub valid nl (String.length valid - nl));
  check_load_error "version 1" p "version 1 unsupported";
  (match Checkpoint.inspect ~path:p with
  | Ok _ -> Alcotest.fail "inspect accepted a version-1 header"
  | Error e ->
      Alcotest.(check bool) "inspect names version 1" true (contains e "version 1 unsupported"));
  (* version 2, whose config record had six more fields: refused too *)
  let p = Filename.concat temp_dir "version-2.ckpt" in
  write_file p ("RCCKPT 2" ^ String.sub valid nl (String.length valid - nl));
  check_load_error "version 2" p "version 2 unsupported";
  (* flipped byte deep in the payload: digest must catch it *)
  let p = Filename.concat temp_dir "flipped.ckpt" in
  let b = Bytes.of_string valid in
  let i = Bytes.length b - 7 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  write_file p (Bytes.to_string b);
  check_load_error "digest mismatch" p "digest mismatch";
  (* truncated payload *)
  let p = Filename.concat temp_dir "truncated.ckpt" in
  write_file p (String.sub valid 0 (String.length valid - 100));
  check_load_error "truncated" p "truncated";
  (* bytes past the payload the header declares *)
  let p = Filename.concat temp_dir "trailing.ckpt" in
  write_file p (valid ^ "x");
  check_load_error "trailing bytes" p "trailing bytes after payload";
  (* missing file is an error, not an exception *)
  check_load_error "missing file" (Filename.concat temp_dir "nope.ckpt") "nope.ckpt"

(* ---- cancel tokens ----------------------------------------------------- *)

let test_cancel_token () =
  let t = Cancel.create () in
  Alcotest.(check (option string)) "no deadline never fires" None (Cancel.reason t);
  Cancel.check t;
  let f = Cancel.create ~deadline:(Rc_util.Timer.now_s () +. 60.0) () in
  Alcotest.(check (option string)) "future deadline not yet" None (Cancel.reason f);
  let d = Cancel.create ~deadline:(Rc_util.Timer.now_s () -. 0.001) () in
  Alcotest.(check (option string))
    "past deadline trips without polling" (Some "deadline exceeded") (Cancel.reason d);
  Alcotest.check_raises "check raises" (Cancel.Cancelled "deadline exceeded") (fun () ->
      Cancel.check d)

(* ---- scheduler --------------------------------------------------------- *)

let wait_for ?(timeout_s = 20.0) msg pred =
  let deadline = Rc_util.Timer.now_s () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Rc_util.Timer.now_s () > deadline then Alcotest.failf "timed out: %s" msg
    else (
      Unix.sleepf 0.01;
      go ())
  in
  go ()

(* a job whose on_done fills a slot the test waits on *)
let submit_ok sched ?priority ?deadline_s work =
  let slot = Atomic.make None in
  match
    Scheduler.submit sched ?priority ?deadline_s
      ~on_done:(fun f -> Atomic.set slot (Some f))
      work
  with
  | Ok () -> slot
  | Error e -> Alcotest.failf "submit rejected: %s" e

let await_finished slot =
  wait_for "job finished" (fun () -> Atomic.get slot <> None);
  Option.get (Atomic.get slot)

let await_done slot = (await_finished slot).Scheduler.outcome

let test_scheduler_runs_jobs () =
  let sched = Scheduler.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let slots =
        List.init 6 (fun i -> submit_ok sched (fun _ -> Json.Int (i * i)))
      in
      List.iteri
        (fun i slot ->
          let f = await_finished slot in
          Alcotest.(check int) (Printf.sprintf "job %d id is its admission order" i) (i + 1)
            f.Scheduler.id;
          Alcotest.(check bool) (Printf.sprintf "job %d timings" i) true
            (f.Scheduler.wait_s >= 0.0 && f.Scheduler.run_s >= 0.0);
          match f.Scheduler.outcome with
          | Scheduler.Done (Json.Int v) ->
              Alcotest.(check int) (Printf.sprintf "job %d result" i) (i * i) v
          | _ -> Alcotest.failf "job %d did not complete" i)
        slots;
      (* a job counts as finished once its on_done has returned *)
      Scheduler.shutdown sched;
      let c = Scheduler.counts sched in
      Alcotest.(check int) "completed" 6 c.Scheduler.completed;
      Alcotest.(check int) "nothing pending" 0 c.Scheduler.pending;
      Alcotest.(check int) "nothing running" 0 c.Scheduler.running)

(* a long-running worker must not retain what its finished jobs
   returned: once on_done has returned, the scheduler holds nothing of
   the job, so a result held only weakly is collected *)
let test_scheduler_keeps_no_finished_job () =
  let sched = Scheduler.create ~workers:1 () in
  let seen = Weak.create 1 in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      (* on_done keeps a flag, not the result, as submit_ok's slot would *)
      let completed = Atomic.make false in
      (match
         Scheduler.submit sched
           ~on_done:(fun f ->
             Atomic.set completed
               (match f.Scheduler.outcome with Scheduler.Done _ -> true | _ -> false))
           (fun _ ->
             let result = Json.String (String.make 10_000 'x') in
             Weak.set seen 0 (Some result);
             result)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "submit rejected: %s" e);
      (* shutdown returns once the job's on_done has returned *)
      Scheduler.shutdown sched;
      Alcotest.(check bool) "job completed" true (Atomic.get completed);
      Gc.full_major ();
      Alcotest.(check bool) "result collected after on_done" false (Weak.check seen 0))

let test_scheduler_priority_order () =
  (* one worker: a blocker occupies it while low/high queue up; the
     high-priority job must run first despite being submitted last *)
  let sched = Scheduler.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let order = ref [] in
      let lock = Mutex.create () in
      let record name = Mutex.protect lock (fun () -> order := name :: !order) in
      let started = Atomic.make false in
      let blocker =
        submit_ok sched (fun _ ->
            Atomic.set started true;
            Unix.sleepf 0.2;
            record "blocker";
            Json.Null)
      in
      (* low/high must be queued while the worker is busy, or priority
         has nothing to decide *)
      while not (Atomic.get started) do
        Thread.yield ()
      done;
      let low = submit_ok sched ~priority:0 (fun _ -> record "low"; Json.Null) in
      let high = submit_ok sched ~priority:5 (fun _ -> record "high"; Json.Null) in
      List.iter (fun slot -> ignore (await_done slot)) [ blocker; low; high ];
      Alcotest.(check (list string))
        "high preempts low in the queue" [ "blocker"; "high"; "low" ]
        (List.rev !order))

let test_scheduler_deadline_expires_queued () =
  let sched = Scheduler.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let blocker = submit_ok sched (fun _ -> Unix.sleepf 0.25; Json.Null) in
      let doomed =
        submit_ok sched ~deadline_s:0.02 (fun _ ->
            Alcotest.fail "expired job must never start")
      in
      (match await_done doomed with
      | Scheduler.Cancelled reason ->
          Alcotest.(check bool)
            (Printf.sprintf "reason mentions deadline: %S" reason)
            true (contains reason "deadline")
      | _ -> Alcotest.fail "expected Cancelled");
      ignore (await_done blocker);
      Scheduler.shutdown sched;
      let c = Scheduler.counts sched in
      Alcotest.(check int) "one cancelled" 1 c.cancelled)

(* a running job that polls its token ends Cancelled once its deadline
   passes.  The deadline runs from submit, so on a host too loaded to
   start the job within it the job expires in the queue instead; such
   an attempt is retried *)
let test_scheduler_running_deadline () =
  let sched = Scheduler.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let rec attempt k =
        let started = Atomic.make false in
        let slot =
          submit_ok sched ~deadline_s:0.05 (fun token ->
              Atomic.set started true;
              (* a long job polling its token, like the flow guard does
                 at stage boundaries *)
              for _ = 1 to 1000 do
                Cancel.check token;
                Unix.sleepf 0.005
              done;
              Json.Null)
        in
        match await_done slot with
        | Scheduler.Cancelled _ when (not (Atomic.get started)) && k > 1 -> attempt (k - 1)
        | Scheduler.Cancelled reason ->
            Alcotest.(check bool) "the job was running" true (Atomic.get started);
            Alcotest.(check string) "reason names the deadline" "deadline exceeded" reason
        | _ -> Alcotest.fail "expected Cancelled"
      in
      attempt 5)

let test_scheduler_failure_does_not_poison () =
  let sched = Scheduler.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let bad = submit_ok sched (fun _ -> failwith "kaboom") in
      (match await_done bad with
      | Scheduler.Failed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "failure text kept: %S" msg)
            true
            (String.length msg > 0)
      | _ -> Alcotest.fail "expected Failed");
      (* the worker must survive and run later jobs normally *)
      let ok = submit_ok sched (fun _ -> Json.String "alive") in
      match await_done ok with
      | Scheduler.Done (Json.String s) -> Alcotest.(check string) "worker alive" "alive" s
      | _ -> Alcotest.fail "worker poisoned by earlier failure")

(* an on_done that raises costs only its own response: the domain that
   called it runs later jobs, and drain still returns *)
let test_scheduler_on_done_raises () =
  let sched = Scheduler.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      (match
         Scheduler.submit sched ~on_done:(fun _ -> failwith "on_done boom") (fun _ -> Json.Null)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "submit rejected: %s" e);
      let later = List.init 3 (fun i -> submit_ok sched (fun _ -> Json.Int i)) in
      List.iteri
        (fun i slot ->
          match await_done slot with
          | Scheduler.Done (Json.Int v) -> Alcotest.(check int) "later job result" i v
          | _ -> Alcotest.failf "job %d after the raising on_done did not complete" i)
        later;
      Scheduler.shutdown sched;
      let c = Scheduler.counts sched in
      Alcotest.(check int) "all four completed" 4 c.Scheduler.completed;
      Alcotest.(check int) "nothing running" 0 c.Scheduler.running)

let test_scheduler_admission_control () =
  let sched = Scheduler.create ~workers:1 ~max_pending:1 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let gate = Atomic.make false in
      let running = Atomic.make false in
      let blocker =
        submit_ok sched (fun _ ->
            Atomic.set running true;
            while not (Atomic.get gate) do
              Unix.sleepf 0.002
            done;
            Json.Null)
      in
      while not (Atomic.get running) do
        Thread.yield ()
      done;
      let queued = submit_ok sched (fun _ -> Json.Null) in
      (match Scheduler.submit sched ~on_done:ignore (fun _ -> Json.Null) with
      | Error reason ->
          Alcotest.(check bool)
            (Printf.sprintf "rejection carries a reason: %S" reason)
            true
            (String.length reason > 0)
      | Ok () -> Alcotest.fail "expected saturation rejection");
      Atomic.set gate true;
      ignore (await_done blocker);
      ignore (await_done queued);
      Scheduler.shutdown sched;
      let c = Scheduler.counts sched in
      Alcotest.(check int) "rejected counted" 1 c.Scheduler.rejected;
      Alcotest.(check int) "completed" 2 c.Scheduler.completed)

(* ---- protocol ---------------------------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.parse_request {|{"id":7,"op":"flow","bench":"tiny","mode":"ilp"}|} with
  | Ok { Protocol.req_id = Json.Int 7; op = Protocol.Flow_op f; _ } ->
      Alcotest.(check string) "bench" "tiny" f.Protocol.f_bench.Bench_suite.bname;
      Alcotest.(check bool) "mode ilp" true (f.Protocol.f_mode = Flow.Ilp)
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error (_, _, e) -> Alcotest.fail e);
  (match
     Protocol.parse_request
       {|{"id":"a","op":"sweep","bench":"tiny","grids":[2,3],"priority":4,"deadline_ms":1500}|}
   with
  | Ok { Protocol.priority; deadline_s; op = Protocol.Sweep_op s; _ } ->
      Alcotest.(check int) "priority" 4 priority;
      Alcotest.(check (option (float 1e-9))) "deadline converted" (Some 1.5) deadline_s;
      Alcotest.(check (list int)) "grids" [ 2; 3 ] s.Protocol.s_grids
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error (_, _, e) -> Alcotest.fail e);
  (* errors keep the id so the response can still be addressed, and the
     op name so the error envelope can echo which op was rejected *)
  (match Protocol.parse_request {|{"id":9,"op":"flow","bench":"nonesuch"}|} with
  | Error (Json.Int 9, Some "flow", e) ->
      Alcotest.(check bool) "names the bad bench" true (contains e "nonesuch")
  | _ -> Alcotest.fail "expected an id+op-carrying error");
  (match Protocol.parse_request {|{"id":1,"op":"transmogrify"}|} with
  | Error (_, Some "transmogrify", e) ->
      Alcotest.(check bool) "lists known ops" true (contains e "flow | report");
      Alcotest.(check bool) "echoes the offender" true (contains e "transmogrify")
  | Error _ -> Alcotest.fail "unknown op error lost the op name"
  | Ok _ -> Alcotest.fail "unknown op accepted");
  (* session ops parse, and a malformed edit is rejected with the op *)
  (match
     Protocol.parse_request
       {|{"id":2,"op":"session_edit","session":5,"seq":3,"edits":[{"kind":"move","cell":1,"x":2.0,"y":3.0},{"kind":"period","period":95.0}]}|}
   with
  | Ok { Protocol.op = Protocol.Session_edit_op se; _ } ->
      Alcotest.(check int) "session" 5 se.Protocol.se_session;
      Alcotest.(check (option int)) "seq" (Some 3) se.Protocol.se_seq;
      Alcotest.(check int) "edits" 2 (List.length se.Protocol.se_edits)
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error (_, _, e) -> Alcotest.fail e);
  (match
     Protocol.parse_request {|{"id":2,"op":"session_edit","session":5,"edits":[{"kind":"warp"}]}|}
   with
  | Error (_, Some "session_edit", e) ->
      Alcotest.(check bool) "names the bad kind" true (contains e "warp")
  | _ -> Alcotest.fail "bad edit kind accepted or op name lost");
  (match Protocol.parse_request "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* every envelope and op field is checked at parse time: a wrongly
     typed or out-of-range value is an error naming the field and the
     op, never a silent default *)
  List.iter
    (fun (line, op, field) ->
      match Protocol.parse_request line with
      | Error (_, Some o, e) ->
          Alcotest.(check string) (line ^ ": op") op o;
          Alcotest.(check bool) (Printf.sprintf "%s: %S names %s" line e field) true
            (contains e field)
      | Error (_, None, e) -> Alcotest.failf "%s: error lost the op name: %s" line e
      | Ok _ -> Alcotest.failf "%s: accepted" line)
    [
      ({|{"id":1,"op":"flow","bench":"tiny","priority":"high"}|}, "flow", "\"priority\"");
      ({|{"id":2,"op":"flow","bench":"tiny","priority":1.5}|}, "flow", "\"priority\"");
      ({|{"id":3,"op":"flow","bench":"tiny","deadline_ms":"soon"}|}, "flow", "\"deadline_ms\"");
      ({|{"id":4,"op":"flow","bench":"tiny","deadline_ms":-5}|}, "flow", "\"deadline_ms\"");
      ({|{"id":4,"op":"flow","bench":"tiny","deadline_ms":0}|}, "flow", "\"deadline_ms\"");
      ({|{"id":5,"op":"flow","bench":"tiny","max_iterations":-4}|}, "flow", "\"max_iterations\"");
      ({|{"id":6,"op":"sweep","bench":"tiny","grids":[0,-3]}|}, "sweep", "\"grids\"");
      ({|{"id":7,"op":"sweep","bench":"tiny","grids":[100000]}|}, "sweep", "\"grids\"");
      ( {|{"id":8,"op":"sweep","bench":"tiny","grids":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]}|},
        "sweep",
        "\"grids\"" );
    ];
  (* the bounds themselves still parse: a 1 ms deadline, a
     prologue-only flow, the largest grid, and a retired field *)
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> ()
      | Error (_, _, e) -> Alcotest.failf "%s: rejected: %s" line e)
    [
      {|{"id":9,"op":"flow","bench":"tiny","deadline_ms":1,"max_iterations":0,"priority":-2}|};
      {|{"id":10,"op":"sweep","bench":"tiny","grids":[1,64]}|};
      {|{"id":11,"op":"flow","bench":"tiny","incremental":"no"}|};
    ]

(* a resumed flow writes no checkpoints, and a cadence below 1 means
   nothing: both are refused at parse time, naming the op *)
let test_protocol_checkpoint_fields () =
  let expect_error name line needle =
    match Protocol.parse_request line with
    | Error (_, Some "flow", e) ->
        Alcotest.(check bool) (Printf.sprintf "%s: %S mentions %S" name e needle) true
          (contains e needle)
    | Error (_, _, e) -> Alcotest.failf "%s: error lost the op name: %s" name e
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  expect_error "resume with cadence"
    {|{"id":1,"op":"flow","resume_from":"x.ckpt","checkpoint_every":1,"checkpoint_dir":"d"}|}
    "cannot be combined";
  expect_error "zero cadence" {|{"id":2,"op":"flow","bench":"tiny","checkpoint_every":0}|}
    "checkpoint_every";
  expect_error "negative cadence" {|{"id":3,"op":"flow","bench":"tiny","checkpoint_every":-2}|}
    "checkpoint_every";
  (* what the supervisor sends stays valid: an injected cadence on a
     fresh flow, and a redispatch rewritten to resume_from alone *)
  (match
     Protocol.parse_request
       {|{"id":4,"op":"flow","bench":"tiny","checkpoint_every":1,"checkpoint_dir":"d"}|}
   with
  | Ok { Protocol.op = Protocol.Flow_op f; _ } ->
      Alcotest.(check (option int)) "cadence kept" (Some 1) f.Protocol.f_checkpoint_every
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error (_, _, e) -> Alcotest.fail e);
  match Protocol.parse_request {|{"id":5,"op":"flow","resume_from":"x.ckpt"}|} with
  | Ok { Protocol.op = Protocol.Flow_op f; _ } ->
      Alcotest.(check (option string)) "resume kept" (Some "x.ckpt") f.Protocol.f_resume_from
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error (_, _, e) -> Alcotest.fail e

let test_protocol_sync_ops_have_no_job () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "sync op" true (Protocol.job_of_op op = None))
    [
      Protocol.Checkpoint_op "x";
      Protocol.Status_op;
      Protocol.Restart_op;
      Protocol.Shutdown_op;
    ]

(* ---- server ------------------------------------------------------------ *)

let send_line fd line = ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1))

let read_response ic =
  match Json.of_string (input_line ic) with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad response line: %s" e

let field name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "missing %S" name

(* a rejected request's error envelope names the offending op, and a
   synchronous op sent to a worker (the supervisor answers those) is
   refused the same way *)
let test_server_error_echoes_op () =
  let w = Worker.create ~workers:1 ~session_dir:(Filename.concat temp_dir "eco-echo") () in
  let got = ref Json.Null in
  Worker.handle_line w ~respond:(fun j -> got := j) {|{"id":1,"op":"transmogrify"}|};
  Alcotest.(check bool) "rejected" true (field "ok" !got = Json.Bool false);
  Alcotest.(check bool) "op echoed" true (field "op" !got = Json.String "transmogrify");
  Worker.handle_line w ~respond:(fun j -> got := j)
    {|{"id":2,"op":"session_edit","session":1,"edits":[{"kind":"warp"}]}|};
  Alcotest.(check bool) "bad edit rejected" true (field "ok" !got = Json.Bool false);
  Alcotest.(check bool) "bad edit echoes op" true
    (field "op" !got = Json.String "session_edit");
  Worker.handle_line w ~respond:(fun j -> got := j) {|{"id":3,"op":"status"}|};
  Alcotest.(check bool) "status refused by a worker" true (field "ok" !got = Json.Bool false);
  Alcotest.(check bool) "status echoed" true (field "op" !got = Json.String "status");
  Worker.drain w

(* a worker's drain returns only once every accepted request has been
   answered: the responses are written by the domains that ran the
   jobs, and each carries the scheduler's job timing *)
let test_worker_drain_writes_every_response () =
  let w = Worker.create ~workers:2 ~session_dir:(Filename.concat temp_dir "eco-drain") () in
  let lock = Mutex.create () in
  let responses = ref [] in
  let n = 6 in
  for i = 1 to n do
    Worker.handle_line w
      ~respond:(fun j -> Mutex.protect lock (fun () -> responses := j :: !responses))
      (Printf.sprintf {|{"id":%d,"op":"flow","bench":"tiny"}|} i)
  done;
  Worker.drain w;
  let responses = Mutex.protect lock (fun () -> !responses) in
  Alcotest.(check int) "every response written before drain returned" n
    (List.length responses);
  List.iter
    (fun j ->
      Alcotest.(check bool) "flow ok" true (field "ok" j = Json.Bool true);
      let job = field "job" (field "result" j) in
      match (field "id" job, field "wait_s" job, field "run_s" job) with
      | Json.Int _, Json.Float _, Json.Float _ -> ()
      | _ -> Alcotest.failf "job stats malformed: %s" (Json.to_string job))
    responses

(* ---- ECO sessions ------------------------------------------------------ *)

(* session ops answer asynchronously from a scheduler thread; park on an
   atomic slot until the response lands *)
let async_request srv line =
  let got = Atomic.make None in
  Worker.handle_line srv ~respond:(fun j -> Atomic.set got (Some j)) line;
  let deadline = Rc_util.Timer.now_s () +. 120.0 in
  let rec wait () =
    match Atomic.get got with
    | Some j -> j
    | None ->
        if Rc_util.Timer.now_s () > deadline then Alcotest.failf "no response to: %s" line
        else (
          Unix.sleepf 0.002;
          wait ())
  in
  wait ()

let ok_result ~ctx j =
  if field "ok" j <> Json.Bool true then Alcotest.failf "%s: %s" ctx (Json.to_string j);
  field "result" j

let int_field name j =
  match field name j with Json.Int v -> v | _ -> Alcotest.failf "field %S is not an int" name

let str_field name j =
  match field name j with
  | Json.String s -> s
  | _ -> Alcotest.failf "field %S is not a string" name

let num_field name j =
  match field name j with
  | Json.Float v -> v
  | Json.Int v -> float_of_int v
  | _ -> Alcotest.failf "field %S is not a number" name

(* Lehmer MINSTD, the same deterministic stream discipline as
   bench/loadgen --mix eco: the walk is a pure function of the seed *)
type rng = { mutable s : int }

let rng_make seed =
  let s = ((seed * 7919) + 104729) mod 0x7FFFFFFF in
  { s = (if s = 0 then 1 else s) }

let rng_next r =
  r.s <- r.s * 48271 mod 0x7FFFFFFF;
  r.s

let rng_int r n = rng_next r mod max 1 n
let rng_float r = float_of_int (rng_next r) /. 2147483647.0

(* [batcher seed open_result] returns a thunk producing the next edit
   batch of the seed's walk, sized against the session's geometry *)
let batcher seed r =
  let rng = rng_make seed in
  let n_cells = int_field "n_cells" r
  and n_ffs = int_field "n_ffs" r
  and n_rings = int_field "n_rings" r
  and period = num_field "clock_period_ps" r in
  let chip = field "chip" r in
  let xmin = num_field "xmin" chip
  and ymin = num_field "ymin" chip
  and xmax = num_field "xmax" chip
  and ymax = num_field "ymax" chip in
  let w = xmax -. xmin and h = ymax -. ymin in
  let edit () =
    match rng_int rng 4 with
    | 0 ->
        Json.Obj
          [
            ("kind", Json.String "move");
            ("cell", Json.Int (rng_int rng n_cells));
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
    | 2 when n_ffs > 0 && n_rings > 0 ->
        Json.Obj
          [
            ("kind", Json.String "retarget");
            ("ff", Json.Int (rng_int rng n_ffs));
            ("ring", Json.Int (rng_int rng n_rings));
          ]
    | _ ->
        Json.Obj
          [
            ("kind", Json.String "period");
            ("period", Json.Float (period *. (1.0 +. (0.2 *. rng_float rng))));
          ]
  in
  fun () -> List.init (1 + rng_int rng 3) (fun _ -> edit ())

let edit_request ~id ~sid batch =
  Json.to_line
    (Json.Obj
       [
         ("id", Json.Int id);
         ("op", Json.String "session_edit");
         ("session", Json.Int sid);
         ("edits", Json.List batch);
       ])

let open_session srv =
  let r = ok_result ~ctx:"session_open" (async_request srv {|{"id":0,"op":"session_open","bench":"tiny"}|}) in
  (int_field "session" r, r)

let apply_batch srv sid batch =
  let r = ok_result ~ctx:"session_edit" (async_request srv (edit_request ~id:0 ~sid batch)) in
  str_field "digest" r

let close_session srv sid =
  ignore
    (ok_result ~ctx:"session_close"
       (async_request srv
          (Printf.sprintf {|{"id":0,"op":"session_close","session":%d}|} sid)))

(* replay bit-identity, the subsystem's correctness anchor: an edit walk
   streamed into a live session and the same walk replayed onto a fresh
   session must agree on the final digest — at jobs 1, 2 and 4, since
   every stage re-run crosses the parallel regions *)
let test_session_replay_identity () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let srv =
            Worker.create ~workers:2
              ~session_dir:(Filename.concat temp_dir (Printf.sprintf "eco-j%d" jobs))
              ()
          in
          Fun.protect
            ~finally:(fun () -> Worker.drain srv)
            (fun () ->
              let prop seed =
                let sid, r = open_session srv in
                let gen = batcher seed r in
                let batches = List.init 3 (fun _ -> gen ()) in
                let d_live =
                  List.fold_left (fun _ b -> apply_batch srv sid b) "" batches
                in
                close_session srv sid;
                let sid2, _ = open_session srv in
                let d_replay =
                  List.fold_left (fun _ b -> apply_batch srv sid2 b) "" batches
                in
                close_session srv sid2;
                if d_live <> d_replay then
                  QCheck.Test.fail_reportf
                    "replay digest %s <> incremental %s (seed %d, jobs %d)" d_replay
                    d_live seed jobs;
                true
              in
              QCheck.Test.check_exn
                (QCheck.Test.make ~count:3
                   ~name:(Printf.sprintf "edit walks replay (jobs=%d)" jobs)
                   QCheck.small_nat prop))))
    [ 1; 2; 4 ]

(* capacity 1 with two interleaved sessions: every touch of one evicts
   the other, so every subsequent edit rehydrates from escrow — and the
   digests must still equal a scratch replay's *)
let test_session_evict_rehydrate () =
  let srv =
    Worker.create ~workers:2 ~session_capacity:1
      ~session_dir:(Filename.concat temp_dir "eco-evict") ()
  in
  Fun.protect
    ~finally:(fun () -> Worker.drain srv)
    (fun () ->
      let sid_a, r_a = open_session srv in
      let gen_a = batcher 11 r_a in
      let b1 = gen_a () in
      let b2 = gen_a () in
      let batches_a = [ b1; b2; gen_a () ] in
      let sid_b, r_b = open_session srv in
      let gen_b = batcher 22 r_b in
      let b4 = gen_b () in
      let b5 = gen_b () in
      let batches_b = [ b4; b5; gen_b () ] in
      let d_a = ref "" and d_b = ref "" in
      List.iter2
        (fun ba bb ->
          d_a := apply_batch srv sid_a ba;
          d_b := apply_batch srv sid_b bb)
        batches_a batches_b;
      let resident, known = Session.counts (Worker.sessions srv) in
      Alcotest.(check bool) "capacity respected" true (resident <= 1);
      Alcotest.(check bool) "both sessions known" true (known >= 2);
      close_session srv sid_a;
      close_session srv sid_b;
      let replay batches =
        let sid, _ = open_session srv in
        let d = List.fold_left (fun _ b -> apply_batch srv sid b) "" batches in
        close_session srv sid;
        d
      in
      Alcotest.(check string) "session A digest across evictions" !d_a (replay batches_a);
      Alcotest.(check string) "session B digest across evictions" !d_b (replay batches_b))

(* ---- shm counter segment ----------------------------------------------- *)

let sample_worker_row =
  {
    Shm.pid = 123;
    state = Shm.W_serving;
    started_ns = 11;
    heartbeat_ns = 22;
    requests = 3;
    responses = 4;
    submitted = 5;
    completed = 6;
    failed = 7;
    cancelled = 8;
    rejected = 9;
    queue_depth = 10;
    running = 2;
    job_wall_ms = 1234;
    shm_fallbacks = 13;
    ckpt_saves = 14;
    ckpt_skips = 15;
    solver = Array.init (Array.length Rc_obs.Metrics.export_names) (fun i -> i * 7);
  }

let sample_control_row =
  {
    Shm.c_pid = 99;
    c_state = Shm.C_draining;
    c_restarts = 2;
    c_spawned_ns = 33;
    c_inflight = 3;
    c_redispatched = 1;
    c_resumed = 4;
  }

let test_shm_roundtrip () =
  let path = Filename.concat temp_dir "roundtrip.shm" in
  let shm = Shm.create ~path ~n_workers:2 () in
  Alcotest.(check int) "n_workers" 2 (Shm.n_workers shm);
  Alcotest.(check int) "supervisor pid" (Unix.getpid ()) (Shm.supervisor_pid shm);
  Alcotest.(check (option int)) "no tcp port yet" None (Shm.tcp_port shm);
  Shm.set_tcp_port shm 40129;
  Alcotest.(check (option int)) "tcp port set" (Some 40129) (Shm.tcp_port shm);
  Shm.write_worker shm ~slot:1 sample_worker_row;
  Shm.write_control shm ~slot:1 sample_control_row;
  (* read back through an independent attachment, as `top` would *)
  (match Shm.attach ~path () with
  | Error e -> Alcotest.fail e
  | Ok reader ->
      Alcotest.(check (option int)) "port via attach" (Some 40129) (Shm.tcp_port reader);
      let r = (Shm.read_all reader).(1) in
      Alcotest.(check bool) "worker region consistent" true r.Shm.w_consistent;
      Alcotest.(check bool) "control region consistent" true r.Shm.c_consistent;
      Alcotest.(check bool) "worker row roundtrips" true (r.Shm.worker = sample_worker_row);
      Alcotest.(check bool) "control row roundtrips" true
        (r.Shm.control = sample_control_row);
      (* untouched slot reads as empty/down, not garbage *)
      let r0 = (Shm.read_all reader).(0) in
      Alcotest.(check int) "empty slot pid" 0 r0.Shm.worker.Shm.pid;
      Alcotest.(check bool) "empty slot down" true
        (r0.Shm.control.Shm.c_state = Shm.C_down));
  Sys.remove path

let test_shm_attach_validation () =
  let expect_error name path needle =
    match Shm.attach ~path () with
    | Ok _ -> Alcotest.failf "%s: attach unexpectedly succeeded" name
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S (got %S)" name needle e)
          true (contains e needle)
  in
  expect_error "missing file" (Filename.concat temp_dir "nonesuch.shm") "nonesuch.shm";
  let junk = Filename.concat temp_dir "junk.shm" in
  write_file junk (String.make 16384 'x');
  expect_error "bad magic" junk "bad magic";
  Sys.remove junk;
  (* a valid segment with the version word bumped must be refused *)
  let path = Filename.concat temp_dir "version.shm" in
  ignore (Shm.create ~path ~n_workers:1 ());
  let b = Bytes.of_string (read_file path) in
  Bytes.set_int64_le b 8 99L;
  write_file path (Bytes.to_string b);
  expect_error "future layout version" path "layout version 99";
  Sys.remove path;
  (* truncated file: header promises more workers than the file holds *)
  let path = Filename.concat temp_dir "short.shm" in
  ignore (Shm.create ~path ~n_workers:4 ());
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole - 4096));
  expect_error "truncated" path "truncated";
  Sys.remove path

(* re-creating a segment must not reuse the old one's pages: a worker
   orphaned by a killed supervisor still writes through its old mapping,
   and none of that may show up in the next supervisor's segment *)
let test_shm_recreate_detaches_old () =
  let path = Filename.concat temp_dir "recreate.shm" in
  ignore (Shm.create ~path ~n_workers:1 ());
  let orphan = match Shm.attach ~path () with Ok s -> s | Error e -> Alcotest.fail e in
  let fresh = Shm.create ~path ~n_workers:1 () in
  Shm.write_worker orphan ~slot:0 { sample_worker_row with Shm.pid = 4242 };
  let r = (Shm.read_all fresh).(0) in
  Alcotest.(check int) "fresh slot untouched by the old mapping" 0 r.Shm.worker.Shm.pid;
  (match Shm.attach ~path () with
  | Ok reader ->
      Alcotest.(check int) "attach sees the fresh segment" 0
        (Shm.read_all reader).(0).Shm.worker.Shm.pid
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* seqlock: a reader racing a writer must never observe a mixed row.
   The writer publishes rows whose every field carries the same value, so
   any consistent-flagged read with unequal fields is a torn read.  The
   schedule is fixed in rounds: the writer writes a burst of rows while
   the reader races it, then parks on an atomic until the next round.
   Reads taken while it is parked must all be consistent and carry its
   last value. *)
let test_shm_seqlock_consistency () =
  let path = Filename.concat temp_dir "seqlock.shm" in
  let shm = Shm.create ~path ~n_workers:1 () in
  let rounds = 20 and burst = 500 and parked_reads = 200 in
  (* [go]: the round the writer may run; [parked]: the last round it
     finished, with [last] the value of its last row *)
  let go = Atomic.make 0 and parked = Atomic.make 0 and last = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        let k = ref 0 in
        for round = 1 to rounds do
          while Atomic.get go < round do
            Domain.cpu_relax ()
          done;
          for _ = 1 to burst do
            incr k;
            let v = !k in
            Shm.write_worker shm ~slot:0
              {
                Shm.empty_worker_row with
                Shm.pid = v;
                started_ns = v;
                heartbeat_ns = v;
                requests = v;
                responses = v;
                submitted = v;
                completed = v;
                queue_depth = v;
                job_wall_ms = v;
              }
          done;
          Atomic.set last !k;
          Atomic.set parked round
        done;
        !k)
  in
  let reader = match Shm.attach ~path () with Ok r -> r | Error e -> Alcotest.fail e in
  let check_whole (r : Shm.row) =
    if r.Shm.w_consistent then begin
      let w = r.Shm.worker in
      let v = w.Shm.pid in
      if
        not
          (w.Shm.started_ns = v && w.Shm.heartbeat_ns = v && w.Shm.requests = v
         && w.Shm.responses = v && w.Shm.submitted = v && w.Shm.completed = v
         && w.Shm.queue_depth = v && w.Shm.job_wall_ms = v)
      then
        Alcotest.failf "torn row passed the seqlock: pid=%d started=%d requests=%d" v
          w.Shm.started_ns w.Shm.requests
    end
  in
  (* on a failure, release the writer so it runs out instead of spinning *)
  Fun.protect
    ~finally:(fun () -> Atomic.set go max_int)
    (fun () ->
      for round = 1 to rounds do
        Atomic.set go round;
        while Atomic.get parked < round do
          check_whole (Shm.read_all reader).(0)
        done;
        let v = Atomic.get last in
        for _ = 1 to parked_reads do
          let r = (Shm.read_all reader).(0) in
          if not (r.Shm.w_consistent && r.Shm.worker.Shm.pid = v) then
            Alcotest.failf "round %d, writer parked: consistent=%b pid=%d, last write %d" round
              r.Shm.w_consistent r.Shm.worker.Shm.pid v;
          check_whole r
        done
      done);
  let writes = Domain.join writer in
  Alcotest.(check bool) "writer made progress" true (writes > 100);
  Sys.remove path

(* ---- supervisor -------------------------------------------------------- *)

(* the test binary is not rotary_cli, so point the supervisor at the
   real CLI built next door (declared as a dune dep of this test) *)
let rotary_cli_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/rotary_cli.exe"

(* `rotary_cli flow` refuses checkpoint options it would not honour
   with the usage-error exit (124): a cadence below 1, and a cadence on
   a resumed flow, which writes no checkpoints (the directory must not
   even appear) *)
let test_cli_flow_checkpoint_options () =
  let run args =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          Unix.create_process rotary_cli_exe
            (Array.of_list (rotary_cli_exe :: "flow" :: args))
            Unix.stdin null null)
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "rotary_cli killed by signal %d" s
  in
  Alcotest.(check int) "--checkpoint-every 0" 124
    (run [ "-b"; "tiny"; "--checkpoint-every"; "0" ]);
  let _, checkpoints =
    Checkpoint.run_with_checkpoints ~every:2 ~dir:temp_dir ~name:"cli-resume" tiny_cfg
  in
  let _, path = List.hd checkpoints in
  let ck2 = Filename.concat temp_dir "cli-resume-ck2" in
  Alcotest.(check int) "--resume with --checkpoint-every" 124
    (run [ "-b"; "tiny"; "--resume"; path; "--checkpoint-every"; "1"; "--checkpoint-dir"; ck2 ]);
  Alcotest.(check bool) "no checkpoint directory" false (Sys.file_exists ck2)

let with_supervisor ?(workers = 2) ?(allow_restart = true) ?session_capacity name f =
  let sock = Filename.concat temp_dir (name ^ ".sock") in
  let shm_path = sock ^ ".shm" in
  let cfg =
    {
      Supervisor.workers;
      sched_workers = Some 2;
      max_pending = Some 64;
      unix_path = Some sock;
      tcp = None;
      shm_path;
      checkpoint_dir = sock ^ ".ckpt";
      checkpoint_every = 1;
      drain_grace_s = 30.0;
      allow_restart;
      handle_signals = false;
      exe = Some rotary_cli_exe;
      session_dir = None;
      session_capacity;
    }
  in
  let sup = Thread.create (fun () -> Supervisor.run cfg) () in
  let rec wait n =
    if Sys.file_exists sock && Sys.file_exists shm_path then ()
    else if n = 0 then Alcotest.fail "supervisor listener never appeared"
    else (
      Unix.sleepf 0.05;
      wait (n - 1))
  in
  wait 200;
  Fun.protect
    ~finally:(fun () ->
      (* always shut down, even on assertion failure, so the test binary
         does not leak a supervisor + workers *)
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Unix.connect fd (Unix.ADDR_UNIX sock);
         send_line fd {|{"id":0,"op":"shutdown"}|};
         ignore (input_line (Unix.in_channel_of_descr fd));
         Unix.close fd
       with _ -> ());
      Thread.join sup)
    (fun () -> f ~sock ~shm_path)

let connect_unix sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let attach_ok shm_path =
  match Shm.attach ~path:shm_path () with Ok s -> s | Error e -> Alcotest.fail e

let sum_restarts shm =
  Array.fold_left (fun acc r -> acc + r.Shm.control.Shm.c_restarts) 0 (Shm.read_all shm)

let test_protocol_restart_op () =
  (match Protocol.parse_request {|{"id":1,"op":"restart"}|} with
  | Ok { Protocol.op = Protocol.Restart_op; _ } -> ()
  | Ok _ -> Alcotest.fail "restart parsed as something else"
  | Error (_, _, e) -> Alcotest.fail e);
  (* a supervisor started without --drain-restart declines, naming it *)
  with_supervisor ~allow_restart:false "norestart" (fun ~sock ~shm_path:_ ->
      let fd = connect_unix sock in
      let ic = Unix.in_channel_of_descr fd in
      send_line fd {|{"id":1,"op":"restart"}|};
      let got = read_response ic in
      Alcotest.(check bool) "declined" true (field "ok" got = Json.Bool false);
      (match Json.member "error" got with
      | Some (Json.String e) ->
          Alcotest.(check bool)
            (Printf.sprintf "error names --drain-restart: %S" e)
            true (contains e "--drain-restart")
      | _ -> Alcotest.fail "no error text");
      close_in_noerr ic)

(* End-to-end over the front door: concurrent requests on one
   connection, out-of-order completion, rejection and op echo at the
   front door, graceful shutdown via the protocol, and cleanup of the
   socket and shm segment once the workers have drained. *)
let test_server_socket_smoke () =
  with_supervisor ~workers:1 "smoke" (fun ~sock ~shm_path ->
      let fd = connect_unix sock in
      let ic = Unix.in_channel_of_descr fd in
      send_line fd {|{"id":1,"op":"status"}|};
      send_line fd {|{"id":2,"op":"flow","bench":"tiny"}|};
      send_line fd {|{"id":3,"op":"flow","bench":"bogus"}|};
      send_line fd {|{"id":4,"op":"transmogrify"}|};
      send_line fd {|{"id":5,"op":"shutdown"}|};
      let responses = List.init 5 (fun _ -> read_response ic) in
      let by_id k =
        match List.find_opt (fun j -> field "id" j = Json.Int k) responses with
        | Some j -> j
        | None -> Alcotest.failf "no response with id %d" k
      in
      Alcotest.(check bool) "status ok" true (field "ok" (by_id 1) = Json.Bool true);
      let flow = by_id 2 in
      Alcotest.(check bool) "flow ok" true (field "ok" flow = Json.Bool true);
      let result = field "result" flow in
      Alcotest.(check bool) "flow names its bench" true
        (field "bench" result = Json.String "tiny");
      (match field "digest" result with
      | Json.String d -> Alcotest.(check int) "digest is hex md5" 32 (String.length d)
      | _ -> Alcotest.fail "digest missing");
      Alcotest.(check bool) "bad bench rejected" true (field "ok" (by_id 3) = Json.Bool false);
      let unknown = by_id 4 in
      Alcotest.(check bool) "unknown op rejected" true (field "ok" unknown = Json.Bool false);
      Alcotest.(check bool) "unknown op echoed" true
        (field "op" unknown = Json.String "transmogrify");
      Alcotest.(check bool) "shutdown acked" true (field "ok" (by_id 5) = Json.Bool true);
      close_in_noerr ic;
      wait_for "socket and shm removed after drain" (fun () ->
          not (Sys.file_exists sock || Sys.file_exists shm_path)))

(* a client line past the 1 MiB bound is refused with an error envelope
   and its connection closed, instead of growing the supervisor's
   buffer; the front door keeps serving other connections *)
let test_supervisor_oversized_line () =
  with_supervisor ~workers:1 "bigline" (fun ~sock ~shm_path:_ ->
      let fd = connect_unix sock in
      let big = String.make (2 * 1024 * 1024) 'x' in
      (* the supervisor stops reading at the bound, so this write may
         fail once it closes the connection *)
      let writer =
        Thread.create
          (fun () ->
            try ignore (Unix.write_substring fd big 0 (String.length big))
            with Unix.Unix_error _ -> ())
          ()
      in
      (match Unix.select [ fd ] [] [] 10.0 with
      | [], _, _ -> Alcotest.fail "no answer to a 2 MiB line within 10 s"
      | _ -> ());
      let ic = Unix.in_channel_of_descr fd in
      let got = read_response ic in
      Alcotest.(check bool) "id is null" true (field "id" got = Json.Null);
      Alcotest.(check bool) "refused" true (field "ok" got = Json.Bool false);
      (match field "error" got with
      | Json.String e ->
          Alcotest.(check bool)
            (Printf.sprintf "error names the limit: %S" e)
            true
            (contains e (string_of_int Protocol.max_line_bytes))
      | _ -> Alcotest.fail "no error text");
      Alcotest.(check bool) "connection closed after the error" true
        (match input_line ic with
        | _ -> false
        | exception (End_of_file | Sys_error _) -> true);
      Thread.join writer;
      close_in_noerr ic;
      let fd = connect_unix sock in
      let ic = Unix.in_channel_of_descr fd in
      send_line fd {|{"id":1,"op":"status"}|};
      Alcotest.(check bool) "status still answers" true
        (field "ok" (read_response ic) = Json.Bool true);
      close_in_noerr ic)

(* The chaos drill: SIGKILL the worker running a flow mid-iteration; the
   supervisor must respawn the slot and resume or rerun the flow on a
   sibling, and the response digest must equal an uninterrupted run's. *)
let test_supervisor_chaos_kill () =
  let reference =
    Checkpoint.digest_of_outcome
      (Flow.run (Flow.default_config ~mode:Flow.Netflow Bench_suite.s9234))
  in
  with_supervisor "chaos" (fun ~sock ~shm_path ->
      let fd = connect_unix sock in
      let ic = Unix.in_channel_of_descr fd in
      send_line fd {|{"id":1,"op":"flow","bench":"s9234"}|};
      let shm = attach_ok shm_path in
      let victim = ref 0 in
      wait_for "a worker to pick up the flow" (fun () ->
          Array.iter
            (fun (r : Shm.row) ->
              let c = r.Shm.control in
              if c.Shm.c_state = Shm.C_up && c.Shm.c_inflight > 0 && c.Shm.c_pid > 0 then
                victim := c.Shm.c_pid)
            (Shm.read_all shm);
          !victim <> 0);
      (* give the flow time to pass its first checkpoint boundary *)
      Unix.sleepf 0.15;
      Unix.kill !victim Sys.sigkill;
      let resp = read_response ic in
      Alcotest.(check bool) "flow survives the crash" true
        (field "ok" resp = Json.Bool true);
      (match field "digest" (field "result" resp) with
      | Json.String d ->
          Alcotest.(check string) "digest equals uninterrupted run" reference d
      | _ -> Alcotest.fail "flow response without digest");
      (* the crash and respawn are visible in the control rows *)
      wait_for "restart recorded in shm" (fun () -> sum_restarts shm >= 1);
      close_in_noerr ic;
      try Unix.close fd with Unix.Unix_error _ -> ())

(* rolling restart under load: every pipelined request answered exactly
   once with the right digest, and every slot cycled through a respawn *)
let test_supervisor_rolling_restart () =
  let reference =
    Checkpoint.digest_of_outcome
      (Flow.run (Flow.default_config ~mode:Flow.Netflow Bench_suite.tiny))
  in
  with_supervisor "roll" (fun ~sock ~shm_path ->
      let fd = connect_unix sock in
      let ic = Unix.in_channel_of_descr fd in
      let n = 12 in
      for i = 1 to n do
        send_line fd (Printf.sprintf {|{"id":%d,"op":"flow","bench":"tiny"}|} i)
      done;
      send_line fd {|{"id":100,"op":"restart"}|};
      let responses = List.init (n + 1) (fun _ -> read_response ic) in
      let by_id k =
        match List.find_opt (fun j -> field "id" j = Json.Int k) responses with
        | Some j -> j
        | None -> Alcotest.failf "no response with id %d" k
      in
      Alcotest.(check bool) "restart acknowledged" true
        (field "ok" (by_id 100) = Json.Bool true);
      for i = 1 to n do
        let r = by_id i in
        Alcotest.(check bool) (Printf.sprintf "flow %d ok" i) true
          (field "ok" r = Json.Bool true);
        match field "digest" (field "result" r) with
        | Json.String d ->
            Alcotest.(check string) (Printf.sprintf "flow %d digest" i) reference d
        | _ -> Alcotest.failf "flow %d without digest" i
      done;
      (* the roll completes asynchronously; wait until both slots cycled *)
      let shm = attach_ok shm_path in
      wait_for "both slots respawned" (fun () -> sum_restarts shm >= 2);
      close_in_noerr ic;
      try Unix.close fd with Unix.Unix_error _ -> ())

(* SIGKILL the worker holding an ECO session mid-edit-sequence: the
   supervisor redispatches to a sibling, which rehydrates the session
   from the shared escrow tier; the remaining edits must answer and the
   final digest must equal a scratch replay of the same walk through
   the same supervisor *)
let test_supervisor_session_crash () =
  with_supervisor "eco-crash" (fun ~sock ~shm_path ->
      let fd = connect_unix sock in
      let ic = Unix.in_channel_of_descr fd in
      send_line fd {|{"id":1,"op":"session_open","bench":"tiny"}|};
      let r0 = read_response ic in
      Alcotest.(check bool) "open ok" true (field "ok" r0 = Json.Bool true);
      let res0 = field "result" r0 in
      let sid = int_field "session" res0 in
      let gen = batcher 7 res0 in
      let b1 = gen () in
      let b2 = gen () in
      let b3 = gen () in
      send_line fd (edit_request ~id:2 ~sid b1);
      let r1 = read_response ic in
      Alcotest.(check bool) "edit 1 ok" true (field "ok" r1 = Json.Bool true);
      (* stream the second batch and SIGKILL the worker that picks it
         up; if the batch outruns us, kill an up worker anyway — the
         next edit then still exercises crash rehydration *)
      let shm = attach_ok shm_path in
      let got2 = Atomic.make None in
      let reader = Thread.create (fun () -> Atomic.set got2 (Some (read_response ic))) () in
      send_line fd (edit_request ~id:3 ~sid b2);
      let victim = ref 0 in
      let deadline = Rc_util.Timer.now_s () +. 10.0 in
      while !victim = 0 && Atomic.get got2 = None && Rc_util.Timer.now_s () < deadline do
        Array.iter
          (fun (r : Shm.row) ->
            let c = r.Shm.control in
            if c.Shm.c_state = Shm.C_up && c.Shm.c_inflight > 0 && c.Shm.c_pid > 0 then
              victim := c.Shm.c_pid)
          (Shm.read_all shm)
      done;
      if !victim = 0 then
        Array.iter
          (fun (r : Shm.row) ->
            let c = r.Shm.control in
            if c.Shm.c_state = Shm.C_up && c.Shm.c_pid > 0 then victim := c.Shm.c_pid)
          (Shm.read_all shm);
      Alcotest.(check bool) "found a worker to kill" true (!victim <> 0);
      (try Unix.kill !victim Sys.sigkill with Unix.Unix_error _ -> ());
      Thread.join reader;
      let r2 = match Atomic.get got2 with Some j -> j | None -> Alcotest.fail "no edit 2 response" in
      Alcotest.(check bool) "edit 2 survives the crash" true
        (field "ok" r2 = Json.Bool true);
      send_line fd (edit_request ~id:4 ~sid b3);
      let r3 = read_response ic in
      Alcotest.(check bool) "edit 3 ok after rehydration" true
        (field "ok" r3 = Json.Bool true);
      let d_live = str_field "digest" (field "result" r3) in
      send_line fd (Printf.sprintf {|{"id":5,"op":"session_close","session":%d}|} sid);
      Alcotest.(check bool) "close ok" true (field "ok" (read_response ic) = Json.Bool true);
      (* scratch replay of the identical walk through the supervisor *)
      send_line fd {|{"id":6,"op":"session_open","bench":"tiny"}|};
      let ro = read_response ic in
      Alcotest.(check bool) "replay open ok" true (field "ok" ro = Json.Bool true);
      let sid2 = int_field "session" (field "result" ro) in
      let d_replay = ref "" in
      List.iteri
        (fun i b ->
          send_line fd (edit_request ~id:(7 + i) ~sid:sid2 b);
          let r = read_response ic in
          Alcotest.(check bool) (Printf.sprintf "replay edit %d ok" i) true
            (field "ok" r = Json.Bool true);
          d_replay := str_field "digest" (field "result" r))
        [ b1; b2; b3 ];
      send_line fd (Printf.sprintf {|{"id":10,"op":"session_close","session":%d}|} sid2);
      Alcotest.(check bool) "replay close ok" true
        (field "ok" (read_response ic) = Json.Bool true);
      Alcotest.(check string) "digest identical across the crash" !d_replay d_live;
      wait_for "restart recorded in shm" (fun () -> sum_restarts shm >= 1);
      close_in_noerr ic;
      try Unix.close fd with Unix.Unix_error _ -> ())

(* SIGTERM, SIGINT and SIGHUP as masked in /proc/PID/status (bits 14, 1
   and 0), or None where there is no /proc *)
let blocked_stop_signals pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "SigBlk"; mask ] -> Some (int_of_string ("0x" ^ String.trim mask) land 0x4003)
          | _ -> None)
        (String.split_on_char '\n' status)

(* an idle supervisor must act on SIGTERM: the real CLI with two worker
   processes, signalled once both report serving, exits within 5 s and
   removes its socket and shm files.  It is started with the deprecated
   --transport shm, which must be accepted with a warning, and no stop
   signal may stay blocked in the workers it spawned. *)
let test_supervisor_sigterm_idle () =
  let sock = Filename.concat temp_dir "sigterm.sock" in
  let shm_path = sock ^ ".shm" in
  let log = Filename.concat temp_dir "sigterm.log" in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process rotary_cli_exe
      [| rotary_cli_exe; "serve"; "--workers-proc"; "2"; "--workers"; "1"; "--transport"; "shm";
         "--socket"; sock |]
      Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  let exited = ref false in
  let poll_exit () =
    if not !exited then exited := fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0;
    !exited
  in
  Fun.protect
    ~finally:(fun () ->
      if not (poll_exit ()) then (
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)))
    (fun () ->
      let workers = ref [||] in
      wait_for ~timeout_s:60.0 "both workers serving" (fun () ->
          Sys.file_exists sock
          &&
          match Shm.attach ~path:shm_path () with
          | Ok shm ->
              let rows = Shm.read_all shm in
              workers := Array.map (fun r -> r.Shm.worker.Shm.pid) rows;
              Array.for_all (fun r -> r.Shm.worker.Shm.state = Shm.W_serving) rows
          | Error _ -> false);
      Array.iter
        (fun wpid ->
          match blocked_stop_signals wpid with
          | Some mask -> Alcotest.(check int) "no stop signal blocked in a worker" 0 mask
          | None -> ())
        !workers;
      Unix.kill pid Sys.sigterm;
      wait_for ~timeout_s:5.0 "supervisor exit after SIGTERM" poll_exit;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock);
      Alcotest.(check bool) "shm segment removed" false (Sys.file_exists shm_path);
      Alcotest.(check bool) "deprecated --transport warned about" true
        (contains (read_file log) "deprecated"))

let () =
  Alcotest.run "rc_serve"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "resume is bit-identical (jobs 1/2/4)" `Slow
            test_checkpoint_bit_identity;
          Alcotest.test_case "creates missing parent directories" `Quick
            test_checkpoint_creates_parents;
          Alcotest.test_case "inspect header" `Quick test_checkpoint_inspect;
          Alcotest.test_case "rejects corruption" `Quick test_checkpoint_rejects_corruption;
          Alcotest.test_case "counts file writes and failures" `Quick
            test_checkpoint_save_counts;
          Alcotest.test_case "cli refuses options it would not honour" `Quick
            test_cli_flow_checkpoint_options;
        ] );
      ("cancel", [ Alcotest.test_case "token semantics" `Quick test_cancel_token ]);
      ( "scheduler",
        [
          Alcotest.test_case "runs jobs to completion" `Quick test_scheduler_runs_jobs;
          Alcotest.test_case "keeps no finished job" `Quick
            test_scheduler_keeps_no_finished_job;
          Alcotest.test_case "priority order" `Quick test_scheduler_priority_order;
          Alcotest.test_case "queued deadline expires" `Quick
            test_scheduler_deadline_expires_queued;
          Alcotest.test_case "running deadline expires" `Quick
            test_scheduler_running_deadline;
          Alcotest.test_case "failure does not poison workers" `Quick
            test_scheduler_failure_does_not_poison;
          Alcotest.test_case "raising on_done is contained" `Quick
            test_scheduler_on_done_raises;
          Alcotest.test_case "bounded admission" `Quick test_scheduler_admission_control;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request parsing" `Quick test_protocol_parse;
          Alcotest.test_case "flow checkpoint fields" `Quick test_protocol_checkpoint_fields;
          Alcotest.test_case "sync ops are inline" `Quick test_protocol_sync_ops_have_no_job;
          Alcotest.test_case "restart op" `Slow test_protocol_restart_op;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket smoke" `Slow test_server_socket_smoke;
          Alcotest.test_case "error envelope echoes the op" `Quick
            test_server_error_echoes_op;
          Alcotest.test_case "drain writes every response" `Quick
            test_worker_drain_writes_every_response;
        ] );
      ( "session",
        [
          Alcotest.test_case "randomized edit walks replay bit-identically (jobs 1/2/4)"
            `Slow test_session_replay_identity;
          Alcotest.test_case "evict + rehydrate mid-sequence keeps digests" `Slow
            test_session_evict_rehydrate;
        ] );
      ( "shm",
        [
          Alcotest.test_case "row roundtrip via attach" `Quick test_shm_roundtrip;
          Alcotest.test_case "attach validation" `Quick test_shm_attach_validation;
          Alcotest.test_case "re-create leaves old mappings behind" `Quick
            test_shm_recreate_detaches_old;
          Alcotest.test_case "seqlock consistency under a concurrent writer" `Quick
            test_shm_seqlock_consistency;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "crash recovery is digest-identical (ndjson)" `Slow
            test_supervisor_chaos_kill;
          Alcotest.test_case "rolling restart loses nothing (ndjson)" `Slow
            test_supervisor_rolling_restart;
          Alcotest.test_case "session crash rehydrates digest-identically (ndjson)" `Slow
            test_supervisor_session_crash;
          Alcotest.test_case "idle supervisor exits on SIGTERM" `Slow
            test_supervisor_sigterm_idle;
          Alcotest.test_case "oversized client line is refused" `Slow
            test_supervisor_oversized_line;
        ] );
    ]
