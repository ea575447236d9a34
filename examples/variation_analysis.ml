(* Why rotary clocking? The Section I motivation, reproduced:

   - Monte-Carlo wire variation on a conventional zero-skew tree vs the
     rotary design the flow produced;
   - the three-way comparison against a clock mesh (power vs skew).

     dune exec examples/variation_analysis.exe *)

open Rc_core

let () =
  let bench = Bench_suite.s9234 in
  Printf.printf "running the flow on %s...\n%!" bench.Bench_suite.bname;
  let o = Flow.run (Flow.default_config bench) in

  let vs = Variation_study.run o in
  print_newline ();
  print_string vs.Variation_study.report;
  print_newline ();

  let _, table = Clocking_compare.run o in
  print_endline (Rc_obs.Report.to_text table);

  (* sensitivity: how the rotary advantage scales with variation *)
  Printf.printf "\nsensitivity to the wire-variation sigma:\n";
  Printf.printf "  %8s %18s %18s %10s\n" "sigma" "tree spread (ps)" "rotary spread (ps)" "ratio";
  List.iter
    (fun sigma ->
      let model =
        { Rc_variation.Variation.default_model with Rc_variation.Variation.sigma_wire = sigma }
      in
      let r = Variation_study.run ~model o in
      let t = r.Variation_study.tree.Rc_variation.Variation.mean_spread in
      let v = r.Variation_study.rotary.Rc_variation.Variation.mean_spread in
      Printf.printf "  %7.0f%% %18.2f %18.2f %9.1fx\n" (100.0 *. sigma) t v
        (if v > 0.0 then t /. v else nan))
    [ 0.02; 0.05; 0.10; 0.20 ];
  Printf.printf
    "\nthe tree's spread scales with its millimeters of source-sink path; the\n\
     rotary design only exposes short stubs and junction-averaged ring arcs —\n\
     the variability gap the paper builds its case on.\n"
