(* Rc_obs tests: registry semantics, the disabled fast path, shard-merge
   determinism under the domain pool, trace integration, and golden-file
   comparisons of the paper-table report on the tiny circuit. *)

open Rc_core
module Metrics = Rc_obs.Metrics
module Report = Rc_obs.Report

let with_jobs n f =
  Rc_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Rc_par.Pool.set_jobs 1) f

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

(* ---- registry basics -------------------------------------------------- *)

let test_counter_basics () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.basics.counter" in
      Metrics.incr c;
      Metrics.add c 41;
      Alcotest.(check int) "count" 42 (Metrics.count c);
      Alcotest.(check bool)
        "interning is idempotent" true
        (Metrics.count (Metrics.counter "test.basics.counter") = 42);
      match Metrics.value_of "test.basics.counter" with
      | Some (Metrics.Count 42) -> ()
      | _ -> Alcotest.fail "value_of mismatch")

let test_kind_clash () =
  let _ = Metrics.counter "test.clash" in
  Alcotest.check_raises "gauge on a counter name"
    (Invalid_argument "Metrics: test.clash already registered as a counter")
    (fun () -> ignore (Metrics.gauge "test.clash"))

let test_gauge_timer_histogram () =
  with_metrics (fun () ->
      let g = Metrics.gauge "test.basics.gauge" in
      Metrics.set_gauge g 1.5;
      Metrics.set_gauge g 2.5;
      (match Metrics.value_of "test.basics.gauge" with
      | Some (Metrics.Gauge v) -> Alcotest.(check (float 0.0)) "last write wins" 2.5 v
      | _ -> Alcotest.fail "gauge value");
      let t = Metrics.timer "test.basics.timer" in
      Metrics.add_time t 0.25;
      (match Metrics.value_of "test.basics.timer" with
      | Some (Metrics.Timer { calls; total_s }) ->
          Alcotest.(check int) "one call" 1 calls;
          Alcotest.(check (float 0.0)) "recorded seconds" 0.25 total_s
      | _ -> Alcotest.fail "timer value");
      let h = Metrics.histogram "test.basics.hist" in
      List.iter (Metrics.observe h) [ 1; 2; 3; 100 ];
      match Metrics.value_of "test.basics.hist" with
      | Some (Metrics.Hist { n; sum; min; max; buckets }) ->
          Alcotest.(check int) "n" 4 n;
          Alcotest.(check int) "sum" 106 sum;
          Alcotest.(check int) "min" 1 min;
          Alcotest.(check int) "max" 100 max;
          (* 1 -> bucket 1; 2,3 -> bucket 2; 100 -> bucket 7 *)
          Alcotest.(check int) "bucket1" 1 buckets.(1);
          Alcotest.(check int) "bucket2" 2 buckets.(2);
          Alcotest.(check int) "bucket7" 1 buckets.(7)
      | _ -> Alcotest.fail "hist value")

let test_snapshot_diff () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.diff.counter" in
      Metrics.add c 10;
      let before = Metrics.snapshot () in
      Metrics.add c 5;
      let after = Metrics.snapshot () in
      let d = Metrics.diff ~before ~after in
      (match List.assoc_opt "test.diff.counter" d with
      | Some (Metrics.Count 5) -> ()
      | _ -> Alcotest.fail "diff should subtract counters");
      Alcotest.(check bool)
        "unchanged metrics dropped" true
        (List.for_all (fun (_, v) -> v <> Metrics.Count 0) d))

let test_disabled_is_silent () =
  Metrics.reset ();
  let c = Metrics.counter "test.disabled.counter" in
  Metrics.add c 5;
  Alcotest.(check bool) "snapshot empty when disabled" true (Metrics.snapshot () = []);
  with_metrics (fun () ->
      Alcotest.(check int) "nothing recorded while disabled" 0 (Metrics.count c))

(* the acceptance bar for the disabled fast path: recording must not
   allocate.  A million disabled adds may move the minor heap only by
   the test harness's own noise (well under one word per call). *)
let test_disabled_zero_alloc () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test.zeroalloc.counter" in
  let h = Metrics.histogram "test.zeroalloc.hist" in
  (* warm up: DLS slot draw and any one-time allocation *)
  Metrics.add c 1;
  Metrics.observe h 1;
  let before = Gc.minor_words () in
  for i = 1 to 1_000_000 do
    Metrics.add c i;
    Metrics.incr c;
    Metrics.observe h i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled ops allocate nothing (%.0f words / 3M calls)" words)
    true (words < 256.0)

(* ---- fixed export table (shm segment) --------------------------------- *)

(* The positional contract behind Rc_serve.Shm's solver fields: values
   align index-by-index with export_names, uninterned names read 0, and
   the table has no duplicate positions. *)
let test_export_table () =
  with_metrics (fun () ->
      let names = Metrics.export_names in
      Alcotest.(check bool) "table non-empty" true (Array.length names > 0);
      let uniq = List.sort_uniq compare (Array.to_list names) in
      Alcotest.(check int) "no duplicate names" (Array.length names) (List.length uniq);
      let v0 = Metrics.export_values () in
      Alcotest.(check int) "values align with names" (Array.length names)
        (Array.length v0);
      Array.iter (fun v -> Alcotest.(check int) "uninterned exports as 0" 0 v) v0;
      let c = Metrics.counter names.(0) in
      Metrics.add c 17;
      let v1 = Metrics.export_values () in
      Alcotest.(check int) "interned counter exported at its position" 17 v1.(0);
      Alcotest.(check int) "neighbouring field untouched" 0 v1.(1))

(* ---- shard-merge determinism under the pool --------------------------- *)

let shard_workload () =
  let c = Metrics.counter "test.shard.counter" in
  let h = Metrics.histogram "test.shard.hist" in
  let n = 5000 in
  ignore
    (Rc_par.Pool.map
       (fun i ->
         Metrics.add c (1 + (i mod 7));
         Metrics.observe h (i mod 97);
         i)
       (Array.init n Fun.id));
  Rc_par.Pool.for_ ~chunk:13 n (fun i -> if i land 1 = 0 then Metrics.incr c);
  (* restrict to this workload's cells: the global registry also holds
     zeroed cells from other suites, whose unset gauges merge to nan and
     would defeat structural comparison *)
  List.filter (fun (name, _) -> contains ~needle:"test.shard." name) (Metrics.snapshot ())

let test_shard_merge_deterministic () =
  let runs =
    List.map
      (fun jobs ->
        with_jobs jobs (fun () ->
            with_metrics (fun () -> (jobs, shard_workload ()))))
      [ 1; 2; 4 ]
  in
  match runs with
  | (_, reference) :: rest ->
      let expected_count =
        (* sum over i of 1 + i mod 7, plus one incr per even i *)
        let n = 5000 in
        let s = ref 0 in
        for i = 0 to n - 1 do
          s := !s + 1 + (i mod 7);
          if i land 1 = 0 then incr s
        done;
        !s
      in
      (match List.assoc_opt "test.shard.counter" reference with
      | Some (Metrics.Count n) ->
          Alcotest.(check int) "jobs=1 counter total" expected_count n
      | _ -> Alcotest.fail "missing shard counter");
      List.iter
        (fun (jobs, snap) ->
          Alcotest.(check bool)
            (Printf.sprintf "snapshot at jobs=%d identical to jobs=1" jobs)
            true
            (snap = reference))
        rest
  | [] -> Alcotest.fail "no runs"

(* ---- flow-trace integration ------------------------------------------ *)

let test_trace_carries_metrics () =
  with_metrics (fun () ->
      let o = Flow.run (Flow.default_config Bench_suite.tiny) in
      let events = Flow_trace.events o.Flow.trace in
      Alcotest.(check bool) "trace nonempty" true (events <> []);
      Alcotest.(check bool)
        "some stage carries a metric delta" true
        (List.exists (fun e -> e.Flow_trace.metrics <> []) events);
      (* the assignment stage must report netflow work *)
      Alcotest.(check bool)
        "assignment stage reports netflow augmentations" true
        (List.exists
           (fun e ->
             e.Flow_trace.stage = "assignment"
             && List.mem_assoc "netflow.mcmf.augmentations" e.Flow_trace.metrics)
           events))

let test_trace_metrics_empty_when_disabled () =
  Metrics.set_enabled false;
  Metrics.reset ();
  let o = Flow.run (Flow.default_config Bench_suite.tiny) in
  Alcotest.(check bool)
    "no metric deltas when disabled" true
    (List.for_all
       (fun e -> e.Flow_trace.metrics = [])
       (Flow_trace.events o.Flow.trace))

(* metrics must not perturb the numbers: identical flow outcome with the
   registry on and off *)
let test_flow_unchanged_by_metrics () =
  Metrics.reset ();
  let run () = Flow.run (Flow.default_config Bench_suite.tiny) in
  let off = run () in
  let on = with_metrics run in
  Alcotest.(check (float 0.0))
    "final tapping WL identical" off.Flow.final.Flow.tapping_wl
    on.Flow.final.Flow.tapping_wl;
  Alcotest.(check (float 0.0))
    "final signal WL identical" off.Flow.final.Flow.signal_wl
    on.Flow.final.Flow.signal_wl;
  Alcotest.(check (float 0.0))
    "final max load identical" off.Flow.final.Flow.max_load_ff
    on.Flow.final.Flow.max_load_ff

(* ---- the paper-table report ------------------------------------------ *)

let tiny_report_doc () =
  Metrics.reset ();
  Paper_report.build ~timings:false
    (Paper_report.collect ~benches:[ Bench_suite.tiny ] ())

let read_file path =
  (* cwd is test/ under `dune runtest`, the repo root under `dune exec` *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Golden files: regenerate with
     dune exec bin/rotary_cli.exe -- report -b tiny --no-timings -o test/golden/report_tiny
   after an intentional change, and review the diff. *)
let test_report_markdown_golden () =
  let doc = tiny_report_doc () in
  Alcotest.(check string)
    "tiny Markdown report matches golden file"
    (read_file "golden/report_tiny.md")
    (Report.to_markdown doc)

let test_report_json_golden () =
  let doc = tiny_report_doc () in
  Alcotest.(check string)
    "tiny JSON report matches golden file"
    (String.trim (read_file "golden/report_tiny.json"))
    (String.trim (Rc_util.Json.to_string (Paper_report.json_of doc)))

let test_report_jobs_invariant () =
  let render jobs =
    with_jobs jobs (fun () ->
        let doc = tiny_report_doc () in
        (Report.to_markdown doc, Rc_util.Json.to_string (Paper_report.json_of doc)))
  in
  let reference = render 1 in
  List.iter
    (fun jobs ->
      let md, json = render jobs in
      Alcotest.(check string)
        (Printf.sprintf "Markdown identical at jobs=%d" jobs)
        (fst reference) md;
      Alcotest.(check string)
        (Printf.sprintf "JSON identical at jobs=%d" jobs)
        (snd reference) json)
    [ 2; 4 ]

(* ---- report document model ------------------------------------------- *)

let test_report_model () =
  let doc =
    {
      Report.title = "T";
      intro = "I";
      sections =
        [
          Report.section "S" ~prose:"P"
            ~tables:
              [
                {
                  Report.title = "tab";
                  columns = [ "a"; "b" ];
                  rows = [ [ Report.Str "x"; Report.Int 1 ]; [ Report.Str "y"; Report.Int 2 ] ];
                };
              ]
            ~data:[ ("extra", Rc_util.Json.Int 9) ];
        ];
    }
  in
  let md = Report.to_markdown doc in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "markdown contains %S" needle)
        true (contains ~needle md))
    [ "# T"; "## S"; "### tab"; "| a | b |"; "| --- | ---: |"; "| x | 1 |" ];
  let json = Rc_util.Json.to_string (Report.to_json doc) in
  Alcotest.(check bool)
    "json carries the data payload" true
    (contains ~needle:"\"extra\"" json)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge / timer / histogram" `Quick test_gauge_timer_histogram;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
          Alcotest.test_case "disabled zero-alloc" `Quick test_disabled_zero_alloc;
          Alcotest.test_case "fixed export table" `Quick test_export_table;
        ] );
      ( "sharding",
        [ Alcotest.test_case "merge deterministic over jobs" `Quick test_shard_merge_deterministic ] );
      ( "trace",
        [
          Alcotest.test_case "events carry metric deltas" `Quick test_trace_carries_metrics;
          Alcotest.test_case "empty when disabled" `Quick test_trace_metrics_empty_when_disabled;
          Alcotest.test_case "flow unchanged by metrics" `Quick test_flow_unchanged_by_metrics;
        ] );
      ( "report",
        [
          Alcotest.test_case "document model" `Quick test_report_model;
          Alcotest.test_case "markdown golden" `Quick test_report_markdown_golden;
          Alcotest.test_case "json golden" `Quick test_report_json_golden;
          Alcotest.test_case "identical across jobs" `Quick test_report_jobs_invariant;
        ] );
    ]
