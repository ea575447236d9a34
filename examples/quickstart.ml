(* Quickstart: run the whole integrated placement + skew optimization
   flow on a small synthetic circuit and print what happened.

     dune exec examples/quickstart.exe *)

open Rc_core

let () =
  (* The "tiny" benchmark: ~220 logic cells, 32 flip-flops, a 2x2 rotary
     ring array on a 1.2 mm die. *)
  let bench = Bench_suite.tiny in
  let cfg = Flow.default_config ~mode:Flow.Netflow bench in
  let o = Flow.run cfg in

  Printf.printf "circuit %s: %d cells, %d flip-flops, %d rings\n"
    bench.Bench_suite.bname
    (Rc_netlist.Netlist.n_cells o.Flow.netlist)
    (Rc_netlist.Netlist.n_ffs o.Flow.netlist)
    (Rc_rotary.Ring_array.n_rings o.Flow.rings);
  Printf.printf "sequential pairs: %d, max slack from scheduling: %.1f ps\n\n" o.Flow.n_pairs
    o.Flow.slack;

  Printf.printf "%-5s %12s %14s %14s %10s\n" "iter" "AFD (um)" "tapping (um)" "signal (um)"
    "power(mW)";
  List.iter
    (fun (s : Flow.snapshot) ->
      Printf.printf "%-5d %12.1f %14.0f %14.0f %10.2f\n" s.Flow.iteration s.Flow.afd
        s.Flow.tapping_wl s.Flow.signal_wl s.Flow.total_mw)
    o.Flow.history;

  let b = o.Flow.base and f = o.Flow.final in
  Printf.printf "\ntapping wirelength: %.0f -> %.0f um (%.1f%% reduction)\n" b.Flow.tapping_wl
    f.Flow.tapping_wl
    (Rc_util.Stats.pct_improvement ~from:b.Flow.tapping_wl ~to_:f.Flow.tapping_wl);
  Printf.printf "signal wirelength : %.0f -> %.0f um (%.1f%% change)\n" b.Flow.signal_wl
    f.Flow.signal_wl
    (-.Rc_util.Stats.pct_improvement ~from:b.Flow.signal_wl ~to_:f.Flow.signal_wl);

  (* every flip-flop ends up with a tap realizing its delay target *)
  let ffs, _ = Flow.ff_index o.Flow.netlist in
  let worst = ref 0.0 in
  Array.iteri
    (fun i _ ->
      let tap = o.Flow.assignment.Rc_assign.Assign.taps.(i) in
      let ring = Rc_rotary.Ring_array.ring o.Flow.rings tap.Rc_rotary.Tapping.ring in
      let got =
        Rc_rotary.Ring.delay_at ring ~arc:tap.Rc_rotary.Tapping.arc
          ~conductor:tap.Rc_rotary.Tapping.conductor
        +. Rc_rotary.Tapping.stub_delay cfg.Flow.tech tap.Rc_rotary.Tapping.wirelength
      in
      let period = Rc_rotary.Ring_array.period o.Flow.rings in
      let d = Float.rem (Float.abs (got -. o.Flow.skews.(i))) period in
      worst := Float.max !worst (Float.min d (period -. d)))
    ffs;
  Printf.printf "\nworst phase error across all taps: %.4f ps (targets are met modulo T)\n" !worst
