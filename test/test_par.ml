(* Rc_par.Pool unit tests plus the determinism contract the parallel
   layer promises: for any job count, every parallelized kernel —
   quadratic placement, candidate tapping / assignment, STA, the whole
   flow and the experiment suite — produces bit-identical results. *)

open Rc_core

let with_jobs n f =
  Rc_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Rc_par.Pool.set_jobs 1) f

(* ---- pool primitives ------------------------------------------------- *)

let test_jobs_roundtrip () =
  with_jobs 3 (fun () -> Alcotest.(check int) "set_jobs 3" 3 (Rc_par.Pool.jobs ()));
  Alcotest.(check int) "restored to 1" 1 (Rc_par.Pool.jobs ());
  Alcotest.(check bool) "caller not in a region" false (Rc_par.Pool.in_parallel_region ())

let test_map_ordered () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun n ->
              let a = Array.init n (fun i -> (7 * i) + 3) in
              let expect = Array.map (fun x -> (x * x) - 1) a in
              Alcotest.(check (array int))
                (Printf.sprintf "map jobs=%d n=%d" jobs n)
                expect
                (Rc_par.Pool.map (fun x -> (x * x) - 1) a))
            [ 0; 1; 2; 17; 100 ]))
    [ 1; 2; 4 ]

let test_map_list_ordered () =
  with_jobs 4 (fun () ->
      Alcotest.(check (list string))
        "map_list keeps order"
        [ "a!"; "b!"; "c!"; "d!"; "e!" ]
        (Rc_par.Pool.map_list (fun s -> s ^ "!") [ "a"; "b"; "c"; "d"; "e" ]))

let test_for_covers_once () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let n = 1000 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Rc_par.Pool.for_ ~chunk:7 n (fun i -> Atomic.incr hits.(i));
          Array.iteri
            (fun i h ->
              Alcotest.(check int) (Printf.sprintf "index %d once (jobs=%d)" i jobs) 1
                (Atomic.get h))
            hits))
    [ 1; 2; 4 ]

let test_for_with_scratch () =
  with_jobs 4 (fun () ->
      let n = 500 in
      let out = Array.make n 0 in
      (* scratch counts the indices its owning domain processed; the sum
         of final scratch values must equal n exactly *)
      let made = Atomic.make 0 in
      let totals = Array.make 64 0 in
      Rc_par.Pool.for_with
        ~init:(fun () -> Atomic.fetch_and_add made 1)
        n
        (fun slot i ->
          totals.(slot) <- totals.(slot) + 1;
          out.(i) <- i + 1);
      Alcotest.(check bool) "at most jobs scratches" true (Atomic.get made <= 4);
      Alcotest.(check int) "every index processed once" n (Array.fold_left ( + ) 0 totals);
      Alcotest.(check (array int)) "all slots written" (Array.init n (fun i -> i + 1)) out)

let test_both () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let a, b = Rc_par.Pool.both (fun () -> 6 * 7) (fun () -> "ok") in
          Alcotest.(check int) (Printf.sprintf "both fst jobs=%d" jobs) 42 a;
          Alcotest.(check string) (Printf.sprintf "both snd jobs=%d" jobs) "ok" b))
    [ 1; 2; 4 ]

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  with_jobs 2 (fun () ->
      (try
         Rc_par.Pool.for_ 100 (fun i -> if i = 37 then raise (Boom i));
         Alcotest.fail "expected Boom"
       with Boom 37 -> ());
      (* the pool must remain usable after a failed region *)
      Alcotest.(check (array int))
        "pool reusable after exception"
        (Array.init 50 (fun i -> 2 * i))
        (Rc_par.Pool.map (fun i -> 2 * i) (Array.init 50 Fun.id)))

(* a raising task must neither wedge the workers nor poison later jobs:
   hammer the pool with failing regions at several job counts and check
   it still computes correctly afterwards — the property the serve
   scheduler's workers rely on *)
let test_repeated_failures_do_not_poison () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          for round = 1 to 5 do
            (try
               ignore
                 (Rc_par.Pool.map
                    (fun x -> if x mod 13 = round then raise (Boom x) else x)
                    (Array.init 64 Fun.id));
               Alcotest.fail "expected Boom from map"
             with Boom _ -> ());
            (try
               Rc_par.Pool.for_ 64 (fun i -> if i = (round * 7) mod 64 then raise (Boom i));
               Alcotest.fail "expected Boom from for_"
             with Boom _ -> ());
            Alcotest.(check (array int))
              (Printf.sprintf "pool correct after failures (jobs=%d round=%d)" jobs round)
              (Array.init 40 (fun i -> i * i))
              (Rc_par.Pool.map (fun i -> i * i) (Array.init 40 Fun.id))
          done))
    [ 1; 2; 4 ]

(* multiple tasks raising concurrently: exactly one exception reaches
   the caller and the pool stays usable *)
let test_concurrent_raises () =
  with_jobs 4 (fun () ->
      (try
         Rc_par.Pool.for_ 100 (fun i -> if i mod 3 = 0 then raise (Boom i));
         Alcotest.fail "expected Boom"
       with Boom _ -> ());
      Alcotest.(check (array int))
        "pool survives a raise in every chunk"
        (Array.init 10 succ)
        (Rc_par.Pool.map succ (Array.init 10 Fun.id)))

let test_sequential_scope () =
  with_jobs 4 (fun () ->
      Alcotest.(check bool) "outside scope" false (Rc_par.Pool.in_parallel_region ());
      let r =
        Rc_par.Pool.sequential_scope (fun () ->
            Alcotest.(check bool)
              "inside scope primitives see a busy region" true
              (Rc_par.Pool.in_parallel_region ());
            (* primitives still compute correctly, just sequentially *)
            Rc_par.Pool.map (fun i -> 3 * i) (Array.init 20 Fun.id))
      in
      Alcotest.(check (array int)) "scope result" (Array.init 20 (fun i -> 3 * i)) r;
      Alcotest.(check bool) "flag restored" false (Rc_par.Pool.in_parallel_region ());
      (* restored even when the body raises *)
      (try
         Rc_par.Pool.sequential_scope (fun () -> raise (Boom 1))
       with Boom 1 -> ());
      Alcotest.(check bool) "restored after raise" false (Rc_par.Pool.in_parallel_region ());
      (* nesting is harmless *)
      Rc_par.Pool.sequential_scope (fun () ->
          Rc_par.Pool.sequential_scope (fun () ->
              Alcotest.(check bool) "nested scope" true (Rc_par.Pool.in_parallel_region ()));
          Alcotest.(check bool)
            "inner exit keeps outer scope" true
            (Rc_par.Pool.in_parallel_region ())))

let test_nested_runs_sequentially () =
  with_jobs 2 (fun () ->
      let inner_flags =
        Rc_par.Pool.map (fun _ -> Rc_par.Pool.in_parallel_region ()) (Array.init 8 Fun.id)
      in
      Array.iter
        (fun f -> Alcotest.(check bool) "body runs inside the region" true f)
        inner_flags;
      (* a nested primitive inside the region must still be correct *)
      let nested =
        Rc_par.Pool.map
          (fun i -> Array.fold_left ( + ) 0 (Rc_par.Pool.map (fun j -> j) (Array.init (i + 3) Fun.id)))
          (Array.init 4 Fun.id)
      in
      Alcotest.(check (array int))
        "nested init correct" [| 3; 6; 10; 15 |] nested)

(* ---- batch regions ---------------------------------------------------- *)

let test_region_result_and_nesting () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let r =
            Rc_par.Pool.region (fun () ->
                let a = Rc_par.Pool.map (fun i -> i * 3) (Array.init 40 Fun.id) in
                let s, p =
                  Rc_par.Pool.both
                    (fun () -> Array.fold_left ( + ) 0 a)
                    (fun () -> 7)
                in
                s + p)
          in
          Alcotest.(check int)
            (Printf.sprintf "region result jobs=%d" jobs)
            ((39 * 40 / 2 * 3) + 7)
            r))
    [ 1; 2; 4; 8 ]

let test_region_exception_and_reuse () =
  with_jobs 4 (fun () ->
      (try
         ignore
           (Rc_par.Pool.region (fun () ->
                Rc_par.Pool.for_ 100 (fun i -> if i = 11 then raise (Boom i));
                0));
         Alcotest.fail "expected Boom out of the region"
       with Boom 11 -> ());
      Alcotest.(check (array int))
        "pool usable after a failed region"
        (Array.init 20 succ)
        (Rc_par.Pool.map succ (Array.init 20 Fun.id));
      Alcotest.(check int) "region usable again" 10 (Rc_par.Pool.region (fun () -> 10)))

(* the keepalive contract: across many for_with iterations inside one
   region, scratch is created at most once per participant — never per
   iteration.  This is what lets the STA reuse its cone arenas across
   every analyze_batch of a flow. *)
let test_region_keepalive_no_per_iteration_scratch () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let made = Atomic.make 0 in
          let ka = Rc_par.Pool.keepalive () in
          let n = 400 and rounds = 50 in
          let out = Array.make n 0 in
          Rc_par.Pool.region (fun () ->
              for _ = 1 to rounds do
                Rc_par.Pool.for_with ~reuse:ka
                  ~init:(fun () -> Atomic.fetch_and_add made 1)
                  n
                  (fun _slot i -> out.(i) <- out.(i) + 1)
              done);
          let created = Atomic.get made in
          Alcotest.(check bool)
            (Printf.sprintf "scratch count %d <= jobs %d, not per iteration" created jobs)
            true
            (created >= 1 && created <= jobs);
          Alcotest.(check (array int))
            "every index touched every round"
            (Array.make n rounds) out))
    [ 1; 4 ]

(* keepalive slabs survive *across* regions too *)
let test_keepalive_across_regions () =
  with_jobs 2 (fun () ->
      let made = Atomic.make 0 in
      let ka = Rc_par.Pool.keepalive () in
      for _ = 1 to 10 do
        Rc_par.Pool.region (fun () ->
            Rc_par.Pool.for_with ~reuse:ka
              ~init:(fun () -> Atomic.fetch_and_add made 1)
              100
              (fun _ _ -> ()))
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%d scratches across 10 regions" (Atomic.get made))
        true
        (Atomic.get made <= 2))

(* The pool never spawns more domains than the host has cores (idle
   domains tax every minor GC), so on a single-core CI host the captive
   scope machinery — sub-job publish, spin barrier, worker-side raises —
   would otherwise go untested.  ROTARY_POOL_UNCAPPED=1 forces the full
   requested domain count. *)
let test_uncapped_scope_machinery () =
  Unix.putenv "ROTARY_POOL_UNCAPPED" "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ROTARY_POOL_UNCAPPED" "";
      (* respawn a capped pool for the tests that follow *)
      Rc_par.Pool.set_jobs 1)
    (fun () ->
      with_jobs 4 (fun () ->
          let r =
            Rc_par.Pool.region (fun () ->
                let acc = ref 0 in
                for round = 1 to 5 do
                  let a = Rc_par.Pool.map (fun i -> i + round) (Array.init 200 Fun.id) in
                  acc := !acc + Array.fold_left ( + ) 0 a
                done;
                !acc)
          in
          let expect =
            let acc = ref 0 in
            for round = 1 to 5 do
              for i = 0 to 199 do
                acc := !acc + i + round
              done
            done;
            !acc
          in
          Alcotest.(check int) "5 sub-jobs through the captive scope" expect r;
          (try
             ignore
               (Rc_par.Pool.region (fun () ->
                    Rc_par.Pool.for_ 100 (fun i -> if i = 3 then raise (Boom i));
                    0));
             Alcotest.fail "expected Boom through the scope"
           with Boom 3 -> ());
          Alcotest.(check int)
            "scope still works after a raising sub-job" 10
            (Rc_par.Pool.region (fun () ->
                 Array.fold_left ( + ) 0 (Rc_par.Pool.map (fun i -> i) (Array.init 5 Fun.id))))))

(* ---- kernel determinism across job counts ----------------------------- *)

let at_jobs jobs f =
  List.map (fun j -> with_jobs j f) jobs

let check_all_equal name = function
  | [] | [ _ ] -> ()
  | first :: rest ->
      List.iteri
        (fun k v -> Alcotest.(check bool) (Printf.sprintf "%s [%d]" name k) true (v = first))
        rest

let tiny_netlist =
  lazy (Bench_suite.netlist Bench_suite.tiny)

let test_qplace_deterministic () =
  let netlist = Lazy.force tiny_netlist in
  let chip = Bench_suite.chip Bench_suite.tiny in
  let runs =
    at_jobs [ 1; 2; 4; 8 ] (fun () ->
        (Rc_place.Qplace.initial netlist ~chip).Rc_place.Qplace.positions)
  in
  check_all_equal "placement positions" runs

let stage2 () =
  let tech = Rc_tech.Tech.default in
  let bench = Bench_suite.tiny in
  let netlist = Lazy.force tiny_netlist in
  let chip = Bench_suite.chip bench in
  let rings =
    Rc_rotary.Ring_array.create ~period:tech.Rc_tech.Tech.clock_period ~chip
      ~grid:bench.Bench_suite.ring_grid ()
  in
  let placed = Rc_place.Qplace.initial netlist ~chip in
  let ffs = Rc_netlist.Netlist.flip_flops netlist in
  let ff_positions = Array.map (fun c -> placed.Rc_place.Qplace.positions.(c)) ffs in
  (tech, netlist, rings, placed.Rc_place.Qplace.positions, ff_positions)

let test_sta_deterministic () =
  let tech, netlist, _, positions, _ = stage2 () in
  let runs =
    at_jobs [ 1; 2; 4; 8 ] (fun () ->
        let sta = Rc_timing.Sta.analyze tech netlist ~positions in
        let bits = Array.map Int64.bits_of_float in
        ( sta.Rc_timing.Sta.src,
          sta.Rc_timing.Sta.dst,
          bits sta.Rc_timing.Sta.d_max,
          bits sta.Rc_timing.Sta.d_min,
          Int64.bits_of_float sta.Rc_timing.Sta.critical ))
  in
  check_all_equal "sta pairs + critical" runs

let test_assign_deterministic () =
  let tech, _, rings, _, ff_positions = stage2 () in
  let targets = Array.make (Array.length ff_positions) 0.0 in
  let runs =
    at_jobs [ 1; 2; 4; 8 ] (fun () ->
        Rc_assign.Assign.by_netflow tech rings ~ff_positions ~targets)
  in
  check_all_equal "netflow assignment" runs

(* every numeric output of the flow (the Table III/IV columns except the
   CPU-seconds ones, which measure wall time) must be bit-identical *)
let test_flow_deterministic () =
  let runs =
    at_jobs [ 1; 2; 4; 8 ] (fun () ->
        let o = Flow.run (Flow.default_config ~mode:Flow.Netflow Bench_suite.tiny) in
        ( o.Flow.base,
          o.Flow.final,
          o.Flow.history,
          o.Flow.positions,
          o.Flow.skews,
          o.Flow.assignment,
          o.Flow.slack,
          o.Flow.n_pairs ))
  in
  check_all_equal "flow outcome" runs

let test_suite_deterministic_and_tagged () =
  let runs =
    at_jobs [ 1; 2 ] (fun () ->
        Experiments.run_suite ~benches:[ Bench_suite.tiny ] ~with_ilp:true ())
  in
  let project suite =
    List.map
      (fun (e : Experiments.suite_entry) ->
        ( e.Experiments.netflow.Flow.base,
          e.Experiments.netflow.Flow.final,
          Option.map (fun ((a : Rc_assign.Assign.t), _) -> a) e.Experiments.ilp ))
      suite
  in
  check_all_equal "suite entries" (List.map project runs);
  List.iter
    (fun suite ->
      List.iter
        (fun (e : Experiments.suite_entry) ->
          Alcotest.(check (list string))
            "all trace events tagged with the arm"
            [ e.Experiments.bench.Bench_suite.bname ^ "/netflow" ]
            (List.sort_uniq compare
               (List.map
                  (fun (ev : Flow_trace.event) -> ev.arm)
                  (Flow_trace.events e.Experiments.netflow.Flow.trace))))
        suite)
    runs

let () =
  Alcotest.run "rc_par"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs roundtrip" `Quick test_jobs_roundtrip;
          Alcotest.test_case "ordered map/mapi/init" `Quick test_map_ordered;
          Alcotest.test_case "map_list order" `Quick test_map_list_ordered;
          Alcotest.test_case "for_ covers each index once" `Quick test_for_covers_once;
          Alcotest.test_case "for_with per-domain scratch" `Quick test_for_with_scratch;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "exception propagation + reuse" `Quick
            test_exception_propagates_and_pool_survives;
          Alcotest.test_case "repeated failures do not poison" `Quick
            test_repeated_failures_do_not_poison;
          Alcotest.test_case "concurrent raises" `Quick test_concurrent_raises;
          Alcotest.test_case "sequential_scope" `Quick test_sequential_scope;
          Alcotest.test_case "nested primitives run sequentially" `Quick
            test_nested_runs_sequentially;
        ] );
      ( "region",
        [
          Alcotest.test_case "result + nested primitives" `Quick
            test_region_result_and_nesting;
          Alcotest.test_case "exception propagation + reuse" `Quick
            test_region_exception_and_reuse;
          Alcotest.test_case "keepalive: no per-iteration scratch" `Quick
            test_region_keepalive_no_per_iteration_scratch;
          Alcotest.test_case "keepalive survives across regions" `Quick
            test_keepalive_across_regions;
          Alcotest.test_case "uncapped captive-scope machinery" `Quick
            test_uncapped_scope_machinery;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "quadratic placement" `Quick test_qplace_deterministic;
          Alcotest.test_case "static timing analysis" `Quick test_sta_deterministic;
          Alcotest.test_case "netflow assignment" `Quick test_assign_deterministic;
          Alcotest.test_case "full flow" `Slow test_flow_deterministic;
          Alcotest.test_case "experiment suite + arm tags" `Slow
            test_suite_deterministic_and_tagged;
        ] );
    ]
