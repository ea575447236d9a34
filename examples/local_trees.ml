(* Local tapping trees (Section IX future work, implemented):

   flip-flops on the same ring with delay targets within a small phase
   tolerance share one tapping point driving a zero-skew subtree,
   saving stub wirelength and ring attachment points.

     dune exec examples/local_trees.exe *)

open Rc_core

let () =
  let bench = Bench_suite.tiny in
  let cfg = Flow.default_config bench in
  let o = Flow.run cfg in
  let tech = cfg.Flow.tech in
  let ffs, _ = Flow.ff_index o.Flow.netlist in
  let ff_positions = Array.map (fun c -> o.Flow.positions.(c)) ffs in

  Printf.printf "%s after the full flow: %d flip-flops, tapping WL %.0f um\n\n"
    bench.Bench_suite.bname (Array.length ffs) o.Flow.final.Flow.tapping_wl;

  Printf.printf "%-12s %8s %10s %12s %14s %12s\n" "tolerance" "taps" "groups>=2" "tree WL(um)"
    "total WL(um)" "saving";
  List.iter
    (fun tol ->
      let lt =
        Rc_assign.Local_trees.build ~phase_tolerance:tol tech o.Flow.rings
          ~assignment:o.Flow.assignment ~ff_positions ~targets:o.Flow.skews
      in
      let multi =
        List.length
          (List.filter
             (fun g -> Array.length g.Rc_assign.Local_trees.members > 1)
             lt.Rc_assign.Local_trees.groups)
      in
      let tree_wl =
        List.fold_left
          (fun acc g -> acc +. g.Rc_assign.Local_trees.tree_wirelength)
          0.0 lt.Rc_assign.Local_trees.groups
      in
      let err = Rc_assign.Local_trees.max_phase_error tech o.Flow.rings lt ~targets:o.Flow.skews in
      Printf.printf "%-12s %8d %10d %12.0f %14.0f %11.1f%%  (max phase err %.2f ps)\n"
        (Printf.sprintf "%.1f ps" tol)
        lt.Rc_assign.Local_trees.n_taps multi tree_wl lt.Rc_assign.Local_trees.total_wirelength
        (Rc_util.Stats.pct_improvement ~from:lt.Rc_assign.Local_trees.plain_wirelength
           ~to_:lt.Rc_assign.Local_trees.total_wirelength)
        err)
    [ 0.5; 2.0; 5.0; 10.0; 25.0 ];

  Printf.printf
    "\nlarger tolerances merge more flip-flops per tap (fewer ring attachments,\n\
     less stub wire) at the price of a larger phase error — exactly the skew\n\
     permissible-range trade-off the paper's conclusion anticipates.\n"
