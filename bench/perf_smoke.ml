(* CI perf-smoke for the incremental layer.

   Two checks per --quick circuit, fast enough for every push:

   1. Correctness: the flow's final quality snapshot is bit-identical
      to a cold run of the same plan, whose every stage starts from
      emptied caches (Flow_cache.reset), so no result can come from
      one.
   2. Reuse actually happens: on the medium circuit (s9234) the reuse
      counters — STA replays, assignment-network replays, tap-cache
      hits — must all be non-zero.  A refactor that silently stops the
      caches from firing fails CI even though the results would still
      be correct.  The counters are deterministic for any job count, so
      both checks hold at every -j value.

   -j/--jobs N selects the job count (default 1) so CI can exercise the
   parallel regions; exit status 0 on success, 1 with a diagnostic on
   any failure. *)

open Rc_core

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let ok fmt = Printf.ksprintf (fun s -> Printf.printf "ok   %s\n" s) fmt

let check_field name circuit a b =
  if a = b then ok "%s %s: %.17g" circuit name a
  else fail "%s %s: incremental %.17g <> cold %.17g" circuit name a b

let counter_value snap name =
  match List.assoc_opt name snap with Some (Rc_obs.Metrics.Count n) -> n | _ -> 0

let check_reuse snap circuit name =
  let n = counter_value snap name in
  if n > 0 then ok "%s %s = %d" circuit name n
  else fail "%s %s = 0: the incremental layer never fired" circuit name

(* the flow's own plan with every stage run on emptied caches *)
let cold_plan cfg =
  let cold (st : Flow_stage.t) =
    {
      st with
      Flow_stage.run =
        (fun ctx ->
          Flow_cache.reset ctx.Flow_ctx.caches;
          st.Flow_stage.run ctx);
    }
  in
  let p = Flow.plan_of_config cfg in
  {
    Flow.place = cold p.Flow.place;
    schedule = cold p.Flow.schedule;
    assign = cold p.Flow.assign;
    cost_schedule = cold p.Flow.cost_schedule;
    evaluate = cold p.Flow.evaluate;
    replace = cold p.Flow.replace;
  }

let jobs =
  let n = Array.length Sys.argv in
  let value s = Option.value (int_of_string_opt s) ~default:1 in
  let rec scan i =
    if i >= n then 1
    else if (Sys.argv.(i) = "-j" || Sys.argv.(i) = "--jobs") && i + 1 < n then
      value Sys.argv.(i + 1)
    else if String.length Sys.argv.(i) > 7 && String.sub Sys.argv.(i) 0 7 = "--jobs=" then
      value (String.sub Sys.argv.(i) 7 (String.length Sys.argv.(i) - 7))
    else scan (i + 1)
  in
  scan 1

let () =
  Rc_par.Pool.set_jobs jobs;
  Printf.printf "perf smoke: jobs = %d\n%!" jobs;
  List.iter
    (fun bench ->
      let name = bench.Bench_suite.bname in
      Rc_obs.Metrics.set_enabled true;
      let before = Rc_obs.Metrics.snapshot () in
      let cfg = Flow.default_config bench in
      let inc = Flow.run cfg in
      let snap = Rc_obs.Metrics.diff ~before ~after:(Rc_obs.Metrics.snapshot ()) in
      Rc_obs.Metrics.set_enabled false;
      let cold = Flow.run ~plan:(cold_plan cfg) cfg in
      let a = inc.Flow.final and b = cold.Flow.final in
      check_field "tapping_wl" name a.Flow.tapping_wl b.Flow.tapping_wl;
      check_field "signal_wl" name a.Flow.signal_wl b.Flow.signal_wl;
      check_field "total_wl" name a.Flow.total_wl b.Flow.total_wl;
      check_field "max_load_ff" name a.Flow.max_load_ff b.Flow.max_load_ff;
      check_field "total_mw" name a.Flow.total_mw b.Flow.total_mw;
      check_field "afd" name a.Flow.afd b.Flow.afd;
      if name = "s9234" then begin
        check_reuse snap name "timing.sta.replays";
        check_reuse snap name "netflow.assignment.replays";
        check_reuse snap name "assign.tapcache.hits"
      end)
    Bench_suite.quick;
  if !failures > 0 then begin
    Printf.printf "perf smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perf smoke: all checks passed"
