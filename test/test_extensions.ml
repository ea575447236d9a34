(* Tests for the Section IX future-work extensions implemented here:
   local tapping trees, the ring-count sweep, and the ablation drivers'
   structural claims (complementary phases help; candidate count trades
   cost for runtime monotonically in the right direction). *)

open Rc_core

let tech = Rc_tech.Tech.default

let flow_state =
  lazy
    (let o = Flow.run (Flow.default_config Bench_suite.tiny) in
     let ffs, _ = Flow.ff_index o.Flow.netlist in
     let ff_positions = Array.map (fun c -> o.Flow.positions.(c)) ffs in
     (o, ff_positions))

let build_lt tol =
  let o, ff_positions = Lazy.force flow_state in
  Rc_assign.Local_trees.build ~phase_tolerance:tol tech o.Flow.rings
    ~assignment:o.Flow.assignment ~ff_positions ~targets:o.Flow.skews

let test_lt_partition () =
  let o, _ = Lazy.force flow_state in
  let lt = build_lt 5.0 in
  let n = Rc_netlist.Netlist.n_ffs o.Flow.netlist in
  let seen = Array.make n 0 in
  List.iter
    (fun g ->
      Array.iter (fun i -> seen.(i) <- seen.(i) + 1) g.Rc_assign.Local_trees.members)
    lt.Rc_assign.Local_trees.groups;
  Alcotest.(check (array int)) "every ff in exactly one group" (Array.make n 1) seen;
  Alcotest.(check int) "taps = groups" (List.length lt.Rc_assign.Local_trees.groups)
    lt.Rc_assign.Local_trees.n_taps

let test_lt_groups_single_ring () =
  let o, _ = Lazy.force flow_state in
  let lt = build_lt 5.0 in
  List.iter
    (fun g ->
      Array.iter
        (fun i ->
          Alcotest.(check int) "member on the group's ring"
            g.Rc_assign.Local_trees.ring
            o.Flow.assignment.Rc_assign.Assign.ring_of_ff.(i))
        g.Rc_assign.Local_trees.members)
    lt.Rc_assign.Local_trees.groups

let test_lt_phase_error_bounded () =
  let o, _ = Lazy.force flow_state in
  List.iter
    (fun tol ->
      let lt = build_lt tol in
      let err = Rc_assign.Local_trees.max_phase_error tech o.Flow.rings lt ~targets:o.Flow.skews in
      Alcotest.(check bool)
        (Printf.sprintf "err %.2f <= tol %.2f (+solve eps)" err tol)
        true
        (err <= tol +. 0.05))
    [ 0.5; 2.0; 5.0 ]

let test_lt_zero_tolerance_degenerates () =
  (* at (near-)zero tolerance, almost everything is a singleton and the
     wirelength matches the plain per-ff taps *)
  let lt = build_lt 1e-9 in
  let singles =
    List.for_all
      (fun g -> Array.length g.Rc_assign.Local_trees.members = 1)
      lt.Rc_assign.Local_trees.groups
  in
  if singles then
    Alcotest.(check (float 1.0)) "same wirelength as plain taps"
      lt.Rc_assign.Local_trees.plain_wirelength lt.Rc_assign.Local_trees.total_wirelength
  else
    (* identical targets can still merge; the result must not be worse by
       more than the shared-tree detour *)
    Alcotest.(check bool) "no singleton regression" true
      (lt.Rc_assign.Local_trees.n_taps <= 32)

let test_lt_moderate_tolerance_saves () =
  (* the guaranteed benefit is fewer ring attachment points; the wire
     balance depends on how short the per-ff stubs already are, so we
     only require the penalty stays small *)
  let lt = build_lt 5.0 in
  Alcotest.(check bool) "fewer taps than flip-flops" true
    (lt.Rc_assign.Local_trees.n_taps < 32);
  Alcotest.(check bool)
    (Printf.sprintf "wire %.0f within 15%% of plain %.0f"
       lt.Rc_assign.Local_trees.total_wirelength lt.Rc_assign.Local_trees.plain_wirelength)
    true
    (lt.Rc_assign.Local_trees.total_wirelength
    <= 1.15 *. lt.Rc_assign.Local_trees.plain_wirelength)

let test_ring_sweep () =
  let points, best = Ring_sweep.sweep Bench_suite.tiny ~grids:[ 1; 2; 3 ] in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check int) "ring count" (p.Ring_sweep.grid * p.Ring_sweep.grid)
        p.Ring_sweep.n_rings;
      Alcotest.(check bool) "metal positive" true (p.Ring_sweep.ring_metal > 0.0))
    points;
  Alcotest.(check bool) "best is among points" true
    (List.exists (fun p -> p.Ring_sweep.grid = best.Ring_sweep.grid) points);
  (* best must indeed minimize total incl. ring metal *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "best minimal" true
        (best.Ring_sweep.final.Flow.total_wl +. best.Ring_sweep.ring_metal
        <= p.Ring_sweep.final.Flow.total_wl +. p.Ring_sweep.ring_metal +. 1e-6))
    points;
  Alcotest.(check bool) "report renders" true
    (String.length (Rc_obs.Report.to_text (Ring_sweep.report (points, best))) > 100)

let test_complement_never_hurts () =
  (* with both conductors available the best tap can only be cheaper *)
  let o, ff_positions = Lazy.force flow_state in
  Array.iteri
    (fun i ff ->
      let ring =
        Rc_rotary.Ring_array.ring o.Flow.rings
          (Rc_rotary.Ring_array.containing_ring o.Flow.rings ff)
      in
      let both = Rc_rotary.Tapping.solve ~use_complement:true tech ring ~ff ~target:o.Flow.skews.(i) in
      let outer = Rc_rotary.Tapping.solve ~use_complement:false tech ring ~ff ~target:o.Flow.skews.(i) in
      Alcotest.(check bool) "complement never worse" true
        (both.Rc_rotary.Tapping.wirelength <= outer.Rc_rotary.Tapping.wirelength +. 1e-9))
    ff_positions

let test_load_aware_tapping () =
  (* heavier stub load shifts the solution but still realizes the target *)
  let ring =
    Rc_rotary.Ring.make ~id:0
      ~rect:(Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:600.0 ~ymax:600.0)
      ~clockwise:true ~t_ref:0.0 ~period:1000.0
  in
  let ff = Rc_geom.Point.make 300.0 450.0 in
  List.iter
    (fun load ->
      let tap = Rc_rotary.Tapping.solve ~load tech ring ~ff ~target:222.0 in
      let got =
        Rc_rotary.Ring.delay_at ring ~arc:tap.Rc_rotary.Tapping.arc
          ~conductor:tap.Rc_rotary.Tapping.conductor
        +. Rc_rotary.Tapping.stub_delay_with_load tech ~load tap.Rc_rotary.Tapping.wirelength
      in
      let d = Float.rem (Float.abs (got -. 222.0)) 1000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "load %.0f realizes target" load)
        true
        (Float.min d (1000.0 -. d) < 0.01))
    [ 25.0; 150.0; 600.0 ]

let test_ablation_tables_render () =
  let text t = Rc_obs.Report.to_text t in
  Alcotest.(check bool) "pseudo table" true
    (String.length (text (Ablation.pseudo_weight_schedule ~bench:Bench_suite.tiny ())) > 100);
  Alcotest.(check bool) "objective table" true
    (String.length (text (Ablation.skew_objectives ~bench:Bench_suite.tiny ())) > 100)

let () =
  Alcotest.run "rc_extensions"
    [
      ( "local_trees",
        [
          Alcotest.test_case "partition" `Quick test_lt_partition;
          Alcotest.test_case "single ring per group" `Quick test_lt_groups_single_ring;
          Alcotest.test_case "phase error bounded" `Quick test_lt_phase_error_bounded;
          Alcotest.test_case "zero tolerance degenerates" `Quick
            test_lt_zero_tolerance_degenerates;
          Alcotest.test_case "moderate tolerance merges taps" `Quick
            test_lt_moderate_tolerance_saves;
        ] );
      ( "ring_sweep",
        [ Alcotest.test_case "sweep and best" `Slow test_ring_sweep ] );
      ( "tapping_extensions",
        [
          Alcotest.test_case "complement never hurts" `Quick test_complement_never_hurts;
          Alcotest.test_case "load-aware tapping" `Quick test_load_aware_tapping;
        ] );
      ( "ablation",
        [ Alcotest.test_case "tables render" `Slow test_ablation_tables_render ] );
    ]
