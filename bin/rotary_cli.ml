(* Command-line driver: run the integrated placement + skew optimization
   flow and regenerate the paper's tables. *)

open Cmdliner
open Rc_core

let bench_conv =
  let parse s =
    match Bench_suite.find s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %s (known: %s)" s
               (String.concat ", " Bench_suite.names)))
  in
  let print fmt b = Format.pp_print_string fmt b.Bench_suite.bname in
  Arg.conv (parse, print)

let benches_arg =
  Arg.(
    value
    & opt_all bench_conv []
    & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Benchmark circuit (repeatable); default: all five")

let pick_benches = function [] -> Bench_suite.all | l -> l

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Restrict to tiny + s9234 for a fast sanity pass")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel kernels (default: the ROTARY_JOBS environment \
           variable, else the machine's core count, capped at 8). Results are identical for \
           any value; 1 runs fully sequentially.")

let setup_jobs jobs = Option.iter Rc_par.Pool.set_jobs jobs

let effective_benches benches quick =
  if quick then Bench_suite.quick else pick_benches benches

(* --- flow command --- *)

(* a count that must be at least 1; anything else is a usage error *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer >= 1" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let mode_arg =
  let mode_conv = Arg.enum [ ("netflow", Flow.Netflow); ("ilp", Flow.Ilp) ] in
  Arg.(
    value & opt mode_conv Flow.Netflow
    & info [ "mode" ] ~docv:"MODE" ~doc:"Assignment mode: netflow or ilp")

let run_flow_checked jobs bench mode trace metrics no_incremental checkpoint_every
    checkpoint_dir resume digest =
  setup_jobs jobs;
  if metrics then Rc_obs.Metrics.set_enabled true;
  let cfg = { (Flow.default_config ~mode bench) with Flow.incremental = not no_incremental } in
  let plan = Flow.plan_of_config cfg in
  let o, checkpoints =
    match resume with
    | Some path -> (
        match Rc_serve.Checkpoint.resume ~path () with
        | Ok o -> (o, [])
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1)
    | None -> (
        match checkpoint_every with
        | None -> (Flow.run ~plan cfg, [])
        | Some every ->
            let name =
              Printf.sprintf "%s-%s" bench.Bench_suite.bname (Rc_serve.Checkpoint.mode_name mode)
            in
            Rc_serve.Checkpoint.run_with_checkpoints ~every ~dir:checkpoint_dir ~name cfg)
  in
  Printf.printf "circuit %s: %d flip-flops, %d sequential pairs, max slack %.2f ps\n"
    o.Flow.cfg.Flow.bench.Bench_suite.bname
    (Rc_netlist.Netlist.n_ffs o.Flow.netlist)
    o.Flow.n_pairs o.Flow.slack;
  List.iter
    (fun (s : Flow.snapshot) ->
      Printf.printf
        "  iter %d: AFD %8.1f um, tapping %10.0f um, signal %10.0f um, power %7.2f mW\n"
        s.Flow.iteration s.Flow.afd s.Flow.tapping_wl s.Flow.signal_wl s.Flow.total_mw)
    o.Flow.history;
  Printf.printf "CPU: flow %.2f s, placer %.2f s\n" o.Flow.cpu_flow_s o.Flow.cpu_placer_s;
  List.iter
    (fun (k, path) -> Printf.printf "checkpoint: iter %d -> %s\n" k path)
    checkpoints;
  if digest then
    Printf.printf "digest: %s\n" (Rc_serve.Checkpoint.digest_of_outcome o);
  if trace then begin
    print_newline ();
    print_endline "Stage plan:";
    List.iter (fun l -> print_endline ("  " ^ l)) (Flow.describe_plan plan);
    print_newline ();
    print_endline
      (Rc_obs.Report.to_text
         (Flow_trace.render
            ~title:(Printf.sprintf "Per-stage trace (%s)" bench.Bench_suite.bname)
            o.Flow.trace));
    print_newline ();
    print_endline (Rc_obs.Report.to_text (Flow_trace.summary o.Flow.trace))
  end;
  if metrics then begin
    print_newline ();
    print_string
      (Rc_obs.Metrics.render
         ~title:(Printf.sprintf "Solver metrics (%s)" bench.Bench_suite.bname)
         (Rc_obs.Metrics.snapshot ()))
  end

(* a resumed flow writes no checkpoints, so asking for them is a usage
   error rather than a silent no-op *)
let run_flow jobs bench mode trace metrics no_incremental checkpoint_every checkpoint_dir
    resume digest =
  match (resume, checkpoint_every) with
  | Some _, Some _ ->
      `Error (true, "--resume cannot be combined with --checkpoint-every")
  | _ ->
      run_flow_checked jobs bench mode trace metrics no_incremental checkpoint_every
        checkpoint_dir resume digest;
      `Ok ()

let flow_cmd =
  let bench =
    Arg.(value & opt bench_conv Bench_suite.tiny & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Circuit")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print the stage plan and the structured per-stage trace (wall time, the part of \
                it inside pool fan-outs, and cost delta per stage execution)")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Enable the solver-metrics registry and print the merged totals after the run \
                (CG iterations, simplex pivots, netflow augmentations, Eq. 1 tapping cases, ...)")
  in
  let no_incremental =
    Arg.(
      value & flag
      & info [ "no-incremental" ]
          ~doc:"Disable the cross-iteration incremental caches (dirty-set STA, Eq. 1 tap cache, \
                assignment replay); results are bit-identical either way, only slower")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Write a checkpoint every N iteration boundaries (resumable with --resume; \
                resuming finishes bit-identically to the uninterrupted run).  Not with \
                $(b,--resume)")
  in
  let checkpoint_dir =
    Arg.(
      value & opt string "checkpoints"
      & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc:"Directory for checkpoint files")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE.ckpt"
          ~doc:"Resume a checkpointed flow instead of starting fresh ($(b,-b)/$(b,--mode) are \
                ignored; the checkpoint embeds its configuration)")
  in
  let digest =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:"Print the bit-identity digest of the final placement/skews/assignment \
                (equal digests = bit-identical results)")
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Run the six-stage flow on one circuit and print per-iteration metrics")
    Term.(
      ret
        (const run_flow $ jobs_arg $ bench $ mode_arg $ trace $ metrics $ no_incremental
       $ checkpoint_every $ checkpoint_dir $ resume $ digest))

(* --- tables command --- *)

(* table selectors are validated by cmdliner itself: an unknown TABLE is
   a usage error (listed alternatives, non-zero exit), not a crash *)
let table_conv =
  Arg.enum
    [
      ("1", `T1); ("2", `T2); ("3", `T3); ("4", `T4); ("5", `T5); ("6", `T6); ("7", `T7);
      ("fig2", `Fig2);
    ]

let run_tables jobs tables benches quick bb_seconds =
  setup_jobs jobs;
  let benches = effective_benches benches quick in
  let wanted =
    match tables with [] -> [ `T1; `T2; `T3; `T4; `T5; `T6; `T7; `Fig2 ] | l -> l
  in
  let needs_suite = List.exists (fun t -> List.mem t [ `T3; `T4; `T5; `T6; `T7 ]) wanted in
  let suite =
    if needs_suite then Experiments.run_suite ~benches ~with_ilp:true ~log:true () else []
  in
  List.iter
    (fun t ->
      let text =
        match t with
        | `T1 -> Rc_obs.Report.to_text (snd (Experiments.table1 ~benches ~bb_seconds ()))
        | `T2 -> Rc_obs.Report.to_text (snd (Experiments.table2 ~benches ()))
        | `T3 -> Rc_obs.Report.to_text (Experiments.table3 suite)
        | `T4 -> Rc_obs.Report.to_text (Experiments.table4 suite)
        | `T5 -> Rc_obs.Report.to_text (Experiments.table5 suite)
        | `T6 -> Rc_obs.Report.to_text (Experiments.table6 suite)
        | `T7 -> Rc_obs.Report.to_text (Experiments.table7 suite)
        | `Fig2 -> snd (Experiments.fig2 ())
      in
      print_endline text;
      print_newline ())
    wanted

let tables_cmd =
  let tables =
    Arg.(
      value & pos_all table_conv []
      & info [] ~docv:"TABLE" ~doc:"Tables to produce: 1-7 and/or fig2 (default: all)")
  in
  let bb_seconds =
    Arg.(value & opt float 30.0 & info [ "bb-seconds" ] ~doc:"Branch-and-bound budget for Table I")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables (I-VII) and the Fig. 2 curve")
    Term.(const run_tables $ jobs_arg $ tables $ benches_arg $ quick_arg $ bb_seconds)

(* --- info command --- *)

let run_info jobs benches quick =
  setup_jobs jobs;
  let benches = effective_benches benches quick in
  print_endline (Rc_obs.Report.to_text (snd (Experiments.table2 ~benches ())))

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Print benchmark characteristics (Table II)")
    Term.(const run_info $ jobs_arg $ benches_arg $ quick_arg)

(* --- ablation command --- *)

let run_ablation jobs which =
  setup_jobs jobs;
  let tables =
    match which with
    | `Pseudo -> [ Ablation.pseudo_weight_schedule () ]
    | `Candidates -> [ Ablation.candidate_rings () ]
    | `Objective -> [ Ablation.skew_objectives () ]
    | `Incremental -> [ Ablation.incremental_engines () ]
    | `Engine -> [ Ablation.scheduling_engines () ]
    | `Complement -> [ Ablation.complementary_phase () ]
    | `All -> Ablation.all ()
  in
  print_endline (String.concat "\n\n" (List.map Rc_obs.Report.to_text tables))

let ablation_cmd =
  (* like table_conv: an unknown WHICH is a cmdliner usage error *)
  let which_conv =
    Arg.enum
      [
        ("pseudo", `Pseudo);
        ("candidates", `Candidates);
        ("objective", `Objective);
        ("incremental", `Incremental);
        ("engine", `Engine);
        ("complement", `Complement);
        ("all", `All);
      ]
  in
  let which =
    Arg.(
      value & pos 0 which_conv `All
      & info [] ~docv:"WHICH"
          ~doc:"pseudo | candidates | objective | incremental | engine | complement | all")
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the design-choice ablations from DESIGN.md")
    Term.(const run_ablation $ jobs_arg $ which)

(* --- sweep command (future-work: ring count as a variable) --- *)

let run_sweep jobs bench grids =
  setup_jobs jobs;
  let grids = match grids with [] -> [ 2; 3; 4; 5; 6 ] | l -> l in
  print_endline (Rc_obs.Report.to_text (Ring_sweep.report (Ring_sweep.sweep bench ~grids)))

let sweep_cmd =
  let bench =
    Arg.(value & opt bench_conv Bench_suite.tiny & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Circuit")
  in
  let grids = Arg.(value & pos_all int [] & info [] ~docv:"GRID" ~doc:"Grid sizes to sweep") in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the rotary ring count (Section IX future work)")
    Term.(const run_sweep $ jobs_arg $ bench $ grids)

(* --- render command --- *)

let run_render jobs bench mode out =
  setup_jobs jobs;
  let cfg = Flow.default_config ~mode bench in
  let o = Flow.run cfg in
  let ffs, _ = Flow.ff_index o.Flow.netlist in
  let taps =
    Array.to_list
      (Array.mapi (fun i c -> (c, o.Flow.assignment.Rc_assign.Assign.taps.(i))) ffs)
  in
  Rc_viz.Layout.write ~path:out
    ~chip:(Rc_core.Bench_suite.chip bench)
    ~netlist:o.Flow.netlist ~positions:o.Flow.positions ~rings:o.Flow.rings ~taps ();
  Printf.printf "wrote %s (%d flip-flops, %d rings, tapping WL %.0f um)\n" out
    (Array.length ffs)
    (Rc_rotary.Ring_array.n_rings o.Flow.rings)
    o.Flow.final.Flow.tapping_wl

let render_cmd =
  let bench =
    Arg.(value & opt bench_conv Bench_suite.tiny & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Circuit")
  in
  let out =
    Arg.(value & opt string "layout.svg" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"SVG path")
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Run the flow and render the layout (rings, cells, taps) as SVG")
    Term.(const run_render $ jobs_arg $ bench $ mode_arg $ out)

(* --- export command --- *)

let run_export jobs bench out_net out_pl =
  setup_jobs jobs;
  let netlist = Rc_core.Bench_suite.netlist bench in
  let chip = Rc_core.Bench_suite.chip bench in
  Rc_netlist.Serialize.write_file ~path:out_net ~chip netlist;
  Printf.printf "wrote %s (%d cells, %d nets)\n" out_net
    (Rc_netlist.Netlist.n_cells netlist)
    (Rc_netlist.Netlist.n_nets netlist);
  match out_pl with
  | None -> ()
  | Some path ->
      let placed = Rc_place.Qplace.initial netlist ~chip in
      let oc = open_out path in
      output_string oc (Rc_netlist.Serialize.placement_to_string placed.Rc_place.Qplace.positions);
      close_out oc;
      Printf.printf "wrote %s (HPWL %.0f um)\n" path placed.Rc_place.Qplace.hpwl

let export_cmd =
  let bench =
    Arg.(value & opt bench_conv Bench_suite.tiny & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Circuit")
  in
  let out_net =
    Arg.(value & opt string "circuit.net" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Netlist path")
  in
  let out_pl =
    Arg.(value & opt (some string) None & info [ "placement" ] ~docv:"FILE" ~doc:"Also place and write a .pl file")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a benchmark circuit (and optionally its placement) to disk")
    Term.(const run_export $ jobs_arg $ bench $ out_net $ out_pl)

(* --- import command (.bench) --- *)

let run_import jobs path grid pitch =
  setup_jobs jobs;
  let side = float_of_int grid *. pitch in
  let chip = Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:side ~ymax:side in
  match Rc_netlist.Bench_format.read_file ~chip path with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
  | Ok netlist ->
      Printf.printf "parsed %s: %d cells, %d flip-flops, %d nets\n"
        (Rc_netlist.Netlist.name netlist)
        (Rc_netlist.Netlist.n_cells netlist)
        (Rc_netlist.Netlist.n_ffs netlist)
        (Rc_netlist.Netlist.n_nets netlist);
      let bench =
        {
          Bench_suite.bname = Rc_netlist.Netlist.name netlist;
          ring_grid = grid;
          gen = Bench_suite.Flat { Rc_netlist.Generator.default_config with Rc_netlist.Generator.chip };
        }
      in
      let o = Flow.run_on (Flow.default_config bench) netlist in
      List.iter
        (fun (s : Flow.snapshot) ->
          Printf.printf "  iter %d: AFD %8.1f um, tapping %10.0f um, signal %10.0f um\n"
            s.Flow.iteration s.Flow.afd s.Flow.tapping_wl s.Flow.signal_wl)
        o.Flow.history

let import_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.bench") in
  let grid =
    Arg.(value & opt int 4 & info [ "grid" ] ~docv:"N" ~doc:"Rotary ring array is N x N")
  in
  let pitch =
    Arg.(value & opt float Bench_suite.ring_pitch & info [ "pitch" ] ~docv:"UM" ~doc:"Ring tile pitch, um")
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Run the flow on an ISCAS89 .bench netlist")
    Term.(const run_import $ jobs_arg $ path $ grid $ pitch)

(* --- report command --- *)

let run_report jobs benches quick out no_timings =
  setup_jobs jobs;
  let benches = effective_benches benches quick in
  let reports = Paper_report.collect ~benches () in
  let doc = Paper_report.build ~timings:(not no_timings) reports in
  let md = Rc_obs.Report.to_markdown doc in
  print_string md;
  let md_path = out ^ ".md" and json_path = out ^ ".json" in
  let oc = open_out md_path in
  output_string oc md;
  close_out oc;
  Rc_util.Json.to_file json_path (Paper_report.json_of doc);
  Printf.eprintf "wrote %s and %s\n" md_path json_path

let report_cmd =
  let out =
    Arg.(
      value & opt string "REPORT"
      & info [ "o"; "output" ] ~docv:"PREFIX"
          ~doc:"Write the Markdown to PREFIX.md and the JSON to PREFIX.json")
  in
  let no_timings =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:"Omit wall-clock columns and timer metrics, making the output bit-reproducible \
                across runs and machines")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the flow per circuit with solver metrics enabled and emit the paper-table report \
          (skew-scheduling slack, tapping WL / ring load, Table-I ILP vs greedy, solver metrics) \
          as Markdown + JSON")
    Term.(const run_report $ jobs_arg $ benches_arg $ quick_arg $ out $ no_timings)

(* --- serve command --- *)

let tcp_conv =
  let parse s =
    let host, port =
      match String.rindex_opt s ':' with
      | None -> ("127.0.0.1", s)
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 -> Ok (host, p)
    | _ -> Error (`Msg (Printf.sprintf "invalid TCP spec %S (expected [HOST:]PORT)" s))
  in
  let print fmt (h, p) = Format.fprintf fmt "%s:%d" h p in
  Arg.conv (parse, print)

let run_serve socket workers max_pending workers_proc tcp shm drain_restart checkpoint_every
    checkpoint_dir drain_grace _transport session_dir session_capacity =
  Rc_serve.Supervisor.run
    {
      Rc_serve.Supervisor.workers = workers_proc;
      sched_workers = Some workers;
      max_pending = Some max_pending;
      unix_path = Some socket;
      tcp;
      shm_path = Option.value shm ~default:(socket ^ ".shm");
      checkpoint_dir = Option.value checkpoint_dir ~default:(socket ^ ".ckpt");
      checkpoint_every;
      drain_grace_s = drain_grace;
      allow_restart = drain_restart;
      handle_signals = true;
      exe = None;
      session_dir;
      session_capacity;
    }

let serve_cmd =
  let socket =
    Arg.(
      value & opt string "rotary.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Scheduler domains executing jobs concurrently in each worker process")
  in
  let max_pending =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Admission bound: reject new jobs once N are queued in a worker process")
  in
  let workers_proc =
    Arg.(
      value & opt positive_int 1
      & info [ "workers-proc" ] ~docv:"N"
          ~doc:"Worker processes behind the supervisor, which restarts crashed workers and \
                resumes their in-flight flows from checkpoints (docs/operations.md)")
  in
  let tcp =
    Arg.(
      value & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"[HOST:]PORT"
          ~doc:"Also listen on TCP; port 0 picks an ephemeral port, published in the shm \
                segment")
  in
  let shm =
    Arg.(
      value & opt (some string) None
      & info [ "shm" ] ~docv:"PATH"
          ~doc:"Shared-memory counter segment for $(b,rotary_cli top) (default: \
                SOCKET.shm)")
  in
  let drain_restart =
    Arg.(
      value & flag
      & info [ "drain-restart" ]
          ~doc:"Accept the restart op (and SIGHUP): rolling drain/checkpoint/respawn of \
                workers one at a time under load")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Supervisor-injected checkpoint cadence (iteration boundaries) for crash \
                recovery of client flows that do not checkpoint themselves")
  in
  let checkpoint_dir =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:"Base directory for injected per-request checkpoints (default: SOCKET.ckpt)")
  in
  let drain_grace =
    Arg.(
      value & opt float 30.0
      & info [ "drain-grace" ] ~docv:"SEC"
          ~doc:"Seconds a draining worker gets to finish before SIGKILL (its jobs then \
                resume from checkpoints)")
  in
  let transport =
    Arg.(
      value
      & opt (some (enum [ ("shm", ()); ("ndjson", ()) ])) None
      & info [ "transport" ] ~docv:"NAME"
          ~deprecated:"deprecated and ignored, jobs always travel over the worker socketpair"
          ~doc:"Accepted for compatibility and ignored: the supervisor and its workers \
                always exchange NDJSON lines over a socketpair")
  in
  let session_dir =
    Arg.(
      value & opt (some string) None
      & info [ "session-dir" ] ~docv:"DIR"
          ~doc:"ECO session escrow directory, shared by all workers so sessions survive \
                crashes and eviction (default: CHECKPOINT_DIR/sessions)")
  in
  let session_capacity =
    Arg.(
      value & opt (some int) None
      & info [ "session-capacity" ] ~docv:"N"
          ~doc:"Resident ECO sessions per worker before LRU eviction to escrow (default 8)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve flow/report/sweep/variation requests and held-open ECO edit sessions \
          concurrently over line-delimited JSON (see docs/serving.md for the protocol): a \
          supervisor in front of $(b,--workers-proc) worker processes \
          (docs/operations.md); SIGTERM drains gracefully")
    Term.(
      const run_serve $ socket $ workers $ max_pending $ workers_proc $ tcp $ shm
      $ drain_restart $ checkpoint_every $ checkpoint_dir $ drain_grace $ transport
      $ session_dir $ session_capacity)

(* --- serve-worker command (internal) --- *)

(* the exec'd child of a supervisor: the socketpair is stdin, the shm
   segment re-attaches by path.  Not meant to be invoked by hand. *)
let run_serve_worker shm_path slot restarts workers max_pending session_dir session_capacity =
  match Rc_serve.Shm.attach ~path:shm_path () with
  | Error e ->
      Printf.eprintf "serve-worker: %s\n" e;
      exit 1
  | Ok shm ->
      Rc_serve.Worker.run ~workers ~max_pending ~session_dir ?session_capacity ~shm ~slot
        ~restarts ~fd:Unix.stdin ()

let serve_worker_cmd =
  let shm = Arg.(required & opt (some string) None & info [ "shm" ] ~docv:"PATH") in
  let slot = Arg.(required & opt (some int) None & info [ "slot" ] ~docv:"N") in
  let restarts = Arg.(value & opt int 0 & info [ "restarts" ] ~docv:"N") in
  let workers = Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N") in
  let max_pending = Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N") in
  let session_dir =
    Arg.(required & opt (some string) None & info [ "session-dir" ] ~docv:"DIR")
  in
  let session_capacity =
    Arg.(value & opt (some int) None & info [ "session-capacity" ] ~docv:"N")
  in
  Cmd.v
    (Cmd.info "serve-worker"
       ~doc:
         "Internal: one worker process of a $(b,serve) supervisor \
          (exec'd with the job socketpair as stdin); do not invoke directly")
    Term.(
      const run_serve_worker $ shm $ slot $ restarts $ workers $ max_pending $ session_dir
      $ session_capacity)

(* --- top command --- *)

let render_top shm =
  let module Shm = Rc_serve.Shm in
  let now = Int64.to_int (Rc_util.Timer.now_ns ()) in
  let b = Buffer.create 1024 in
  Printf.bprintf b "rotary top — %s (layout v%d, supervisor pid %d%s)\n" (Shm.path shm)
    Shm.layout_version (Shm.supervisor_pid shm)
    (match Shm.tcp_port shm with
    | Some p -> Printf.sprintf ", tcp :%d" p
    | None -> "");
  Printf.bprintf b "%4s %-9s %7s %4s %7s %5s %7s %7s %4s %4s %7s %5s %7s %7s %8s\n"
    "SLOT" "CTL" "PID" "RST" "HB_MS" "INFL" "REQ" "RESP" "QD" "RUN" "DONE" "FAIL" "REDISP"
    "RESUME" "WALL_MS";
  Array.iteri
    (fun slot (r : Shm.row) ->
      let w = r.Shm.worker and c = r.Shm.control in
      let hb_ms =
        if w.Shm.heartbeat_ns = 0 then -1 else (now - w.Shm.heartbeat_ns) / 1_000_000
      in
      Printf.bprintf b "%4d %-9s %7d %4d %7d %5d %7d %7d %4d %4d %7d %5d %7d %7d %8d%s\n"
        slot
        (Shm.control_state_name c.Shm.c_state)
        w.Shm.pid c.Shm.c_restarts hb_ms c.Shm.c_inflight w.Shm.requests w.Shm.responses w.Shm.queue_depth
        w.Shm.running w.Shm.completed w.Shm.failed c.Shm.c_redispatched c.Shm.c_resumed
        w.Shm.job_wall_ms
        (if r.Shm.w_consistent && r.Shm.c_consistent then "" else "  !torn"))
    (Shm.read_all shm);
  (* ECO session store per worker, read from the fixed solver export
     table (names resolved by position so layout changes stay visible) *)
  let sidx name =
    let found = ref (-1) in
    Array.iteri
      (fun i n -> if n = name then found := i)
      Rc_obs.Metrics.export_names;
    !found
  in
  let i_res = sidx "serve.session.resident"
  and i_open = sidx "serve.session.opens"
  and i_edit = sidx "serve.session.edits"
  and i_evict = sidx "serve.session.evictions"
  and i_rehy = sidx "serve.session.rehydrations" in
  Array.iteri
    (fun slot (r : Shm.row) ->
      let sv i =
        let s = r.Shm.worker.Shm.solver in
        if i >= 0 && i < Array.length s then s.(i) else 0
      in
      Printf.bprintf b
        "sess %4d  resident %d  opens %d  edits %d  evictions %d  rehydrations %d\n" slot
        (sv i_res) (sv i_open) (sv i_edit) (sv i_evict) (sv i_rehy))
    (Shm.read_all shm);
  Buffer.contents b

let run_top shm_path once interval json =
  match Rc_serve.Shm.attach ~path:shm_path () with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
  | Ok shm ->
      let tick () =
        if json then print_string (Rc_util.Json.to_string (Rc_serve.Shm.to_json shm))
        else print_string (render_top shm);
        flush stdout
      in
      if once then tick ()
      else
        while true do
          if not json then print_string "\027[H\027[2J";
          tick ();
          Unix.sleepf interval
        done

let top_cmd =
  let shm =
    Arg.(
      value & opt string "rotary.sock.shm"
      & info [ "shm" ] ~docv:"PATH" ~doc:"Shared-memory counter segment to read")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit (for scripts)")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SEC" ~doc:"Refresh period when not $(b,--once)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full segment as JSON instead of columns")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live per-worker counters of a running supervisor, read from its shared-memory \
          segment without touching the server (column reference in docs/operations.md)")
    Term.(const run_top $ shm $ once $ interval $ json)

let subcommands =
  [
    flow_cmd;
    tables_cmd;
    info_cmd;
    ablation_cmd;
    sweep_cmd;
    render_cmd;
    export_cmd;
    import_cmd;
    report_cmd;
    serve_cmd;
    serve_worker_cmd;
    top_cmd;
  ]

let main_cmd =
  Cmd.group
    (Cmd.info "rotary_cli" ~version:"1.0.0"
       ~doc:"Integrated placement and skew optimization for rotary clocking")
    subcommands

(* Exit-code contract: 0 for success/--help/--version; cli_error (124)
   for every command-line usage error — unknown subcommand, bad flag,
   invalid value (cmdliner splits these across `Term and `Parse) — with
   a usage listing of every subcommand; internal_error (125) for
   uncaught exceptions. *)
let list_subcommands () =
  Printf.eprintf "usage: rotary_cli COMMAND [OPTIONS], where COMMAND is one of:\n";
  List.iter
    (fun (name, doc) -> Printf.eprintf "  %-10s %s\n" name doc)
    [
      ("flow", "run the six-stage flow on one circuit");
      ("tables", "regenerate the paper's tables (I-VII) and the Fig. 2 curve");
      ("info", "print benchmark characteristics (Table II)");
      ("ablation", "run the design-choice ablations");
      ("sweep", "sweep the rotary ring count");
      ("render", "render the placed layout as SVG");
      ("export", "write a benchmark circuit to disk");
      ("import", "run the flow on an ISCAS89 .bench netlist");
      ("report", "emit the paper-table report as Markdown + JSON");
      ("serve", "serve concurrent flow requests over JSON (docs/serving.md)");
      ("top", "live per-worker counters from a supervisor's shm segment");
    ]

let () =
  match Cmd.eval_value main_cmd with
  | Ok (`Ok ()) -> exit Cmd.Exit.ok
  | Ok (`Version | `Help) -> exit Cmd.Exit.ok
  | Error (`Parse | `Term) ->
      list_subcommands ();
      exit Cmd.Exit.cli_error
  | Error `Exn -> exit Cmd.Exit.internal_error
