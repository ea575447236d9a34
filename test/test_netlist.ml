(* Tests for Rc_netlist: model validation and the synthetic benchmark
   generator's structural guarantees (counts, acyclicity, flip-flop
   participation, determinism, locality). *)

open Rc_netlist
open Netlist

let chip = Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1000.0 ~ymax:1000.0

let small_cfg =
  {
    Generator.default_config with
    Generator.name = "t";
    n_logic = 80;
    n_ffs = 12;
    n_nets = 90;
    n_inputs = 4;
    n_outputs = 4;
    depth = 5;
    chip;
    seed = 11;
  }

(* --- model --- *)

let test_make_valid () =
  let kinds = [| Logic; Flipflop; Input_pad; Output_pad |] in
  let nets =
    [| { driver = 2; sinks = [| 0 |] }; { driver = 0; sinks = [| 1; 3 |] };
       { driver = 1; sinks = [| 0 |] } |]
  in
  let nl =
    Netlist.make ~name:"m" ~kinds ~nets
      ~pad_positions:[ (2, Rc_geom.Point.zero); (3, Rc_geom.Point.make 1.0 1.0) ]
  in
  Alcotest.(check int) "cells" 4 (Netlist.n_cells nl);
  Alcotest.(check int) "nets" 3 (Netlist.n_nets nl);
  Alcotest.(check int) "ffs" 1 (Netlist.n_ffs nl);
  Alcotest.(check bool) "is_ff" true (Netlist.is_ff nl 1);
  Alcotest.(check int) "driver net of 0" 1 (Netlist.driver_net nl 0);
  Alcotest.(check int) "no driver net" (-1) (Netlist.driver_net nl 3);
  Alcotest.(check (list int)) "fanins of 0" [ 0; 2 ]
    (List.sort compare (Netlist.fanin_nets nl 0));
  Alcotest.(check bool) "pads fixed" false (Netlist.movable nl 2);
  Alcotest.(check bool) "logic movable" true (Netlist.movable nl 0)

let test_make_rejects_bad () =
  let kinds = [| Logic; Input_pad; Output_pad |] in
  let pad_positions = [ (1, Rc_geom.Point.zero); (2, Rc_geom.Point.zero) ] in
  Alcotest.check_raises "output pad driving"
    (Invalid_argument "Netlist.make: output pad drives a net") (fun () ->
      ignore
        (Netlist.make ~name:"x" ~kinds ~nets:[| { driver = 2; sinks = [| 0 |] } |] ~pad_positions));
  Alcotest.check_raises "input pad as sink"
    (Invalid_argument "Netlist.make: input pad used as sink") (fun () ->
      ignore
        (Netlist.make ~name:"x" ~kinds ~nets:[| { driver = 0; sinks = [| 1 |] } |] ~pad_positions));
  Alcotest.check_raises "self loop" (Invalid_argument "Netlist.make: self-loop net") (fun () ->
      ignore
        (Netlist.make ~name:"x" ~kinds ~nets:[| { driver = 0; sinks = [| 0 |] } |] ~pad_positions));
  Alcotest.check_raises "two nets per driver"
    (Invalid_argument "Netlist.make: cell drives two nets") (fun () ->
      ignore
        (Netlist.make ~name:"x" ~kinds
           ~nets:[| { driver = 0; sinks = [| 2 |] }; { driver = 0; sinks = [| 2 |] } |]
           ~pad_positions))

(* --- generator --- *)

let test_generator_counts () =
  let nl = Generator.generate small_cfg in
  Alcotest.(check int) "logic cells" 80 (Array.length (Netlist.logic_cells nl));
  Alcotest.(check int) "ffs" 12 (Netlist.n_ffs nl);
  Alcotest.(check int) "exact net count" 90 (Netlist.n_nets nl);
  Alcotest.(check int) "pads" 8
    (Netlist.n_cells nl - Array.length (Netlist.logic_cells nl) - Netlist.n_ffs nl)

let test_generator_determinism () =
  let a = Generator.generate small_cfg and b = Generator.generate small_cfg in
  Alcotest.(check int) "same nets" (Netlist.n_nets a) (Netlist.n_nets b);
  let sig_of nl =
    let acc = ref [] in
    Netlist.iter_nets nl (fun i n -> acc := (i, n.driver, Array.to_list n.sinks) :: !acc);
    !acc
  in
  Alcotest.(check bool) "identical structure" true (sig_of a = sig_of b)

let test_generator_seed_changes () =
  let a = Generator.generate small_cfg in
  let b = Generator.generate { small_cfg with Generator.seed = 12 } in
  let sig_of nl =
    let acc = ref [] in
    Netlist.iter_nets nl (fun i n -> acc := (i, n.driver, Array.to_list n.sinks) :: !acc);
    !acc
  in
  Alcotest.(check bool) "different structure" true (sig_of a <> sig_of b)

let test_ffs_participate () =
  let nl = Generator.generate small_cfg in
  Array.iter
    (fun f ->
      Alcotest.(check bool) "ff drives" true (Netlist.driver_net nl f >= 0);
      Alcotest.(check bool) "ff is driven" true (Netlist.fanin_nets nl f <> []))
    (Netlist.flip_flops nl)

let test_logic_acyclic () =
  let nl = Generator.generate small_cfg in
  let n = Netlist.n_cells nl in
  let g = Rc_graph.Digraph.create n in
  Netlist.iter_nets nl (fun _ net ->
      if Netlist.kind nl net.driver = Logic then
        Array.iter
          (fun s -> if Netlist.kind nl s = Logic then Rc_graph.Digraph.add_edge g net.driver s 1.0)
          net.sinks);
  Alcotest.(check bool) "combinational logic is a DAG" true (Rc_graph.Dag.topological_order g <> None)

let test_pads_on_boundary () =
  let nl = Generator.generate small_cfg in
  for p = 0 to Netlist.n_cells nl - 1 do
    if not (Netlist.movable nl p) then begin
      let pos = Netlist.pad_position nl p in
      let on_x = pos.Rc_geom.Point.x = 0.0 || pos.Rc_geom.Point.x = 1000.0 in
      let on_y = pos.Rc_geom.Point.y = 0.0 || pos.Rc_geom.Point.y = 1000.0 in
      Alcotest.(check bool) "pad on die boundary" true (on_x || on_y)
    end
  done

let test_generator_rejects_inconsistent () =
  Alcotest.check_raises "nets too few"
    (Invalid_argument "Generator.generate: n_nets inconsistent with cell counts") (fun () ->
      ignore (Generator.generate { small_cfg with Generator.n_nets = 10 }))

let test_locality_reduces_pairs () =
  (* higher locality must not increase cross-cluster mixing: compare the
     sequential-pair counts through a quick STA-free proxy — count nets
     whose driver and sinks span clusters is hard without cluster access,
     so instead check the generator accepts the knobs and produces the
     same counts *)
  let local = Generator.generate { small_cfg with Generator.locality = 0.95; clusters = 6 } in
  let mixed = Generator.generate { small_cfg with Generator.locality = 0.0; clusters = 6 } in
  Alcotest.(check int) "same net count" (Netlist.n_nets local) (Netlist.n_nets mixed)

let prop_generator_no_dangling_nets =
  QCheck.Test.make ~name:"every generated net has sinks; every ff participates" ~count:30
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, depth) ->
      let cfg = { small_cfg with Generator.seed = seed + 50; depth } in
      let nl = Generator.generate cfg in
      let ok = ref (Netlist.n_nets nl = cfg.Generator.n_nets) in
      Netlist.iter_nets nl (fun _ net -> if Array.length net.sinks = 0 then ok := false);
      Array.iter
        (fun f -> if Netlist.driver_net nl f < 0 || Netlist.fanin_nets nl f = [] then ok := false)
        (Netlist.flip_flops nl);
      !ok)

(* The paper circuits as written by Serialize: the flow digests start
   from these netlists, so the flat generator must keep producing them
   byte for byte. *)
let test_paper_netlists_pinned () =
  let pins =
    [
      ("tiny", "cf13d122f780dbe746efb8b939a41784");
      ("s9234", "c161d768b81644c26b924e15b19b03e0");
      ("s5378", "08a36f2208ee8f9f2d17d98cc19e5c13");
      ("s15850", "bda0b021cc948a87d3a2867cb66d74e0");
      ("s38417", "4c44e990b02489630ca77ef32f8666ea");
      ("s35932", "7df50a6750686fb565de65186cdd4dae");
    ]
  in
  let benches = Rc_core.Bench_suite.(tiny :: all) in
  Alcotest.(check (list string)) "pinned circuits" (List.map fst pins)
    (List.map (fun b -> b.Rc_core.Bench_suite.bname) benches);
  List.iter2
    (fun b (name, md5) ->
      let nl = Rc_core.Bench_suite.netlist b in
      let text = Serialize.to_string ~chip:(Rc_core.Bench_suite.chip b) nl in
      Alcotest.(check string) name md5 (Digest.to_hex (Digest.string text)))
    benches pins

let () =
  Alcotest.run "rc_netlist"
    [
      ( "model",
        [
          Alcotest.test_case "valid construction" `Quick test_make_valid;
          Alcotest.test_case "rejects inconsistency" `Quick test_make_rejects_bad;
        ] );
      ( "generator",
        [
          Alcotest.test_case "exact counts" `Quick test_generator_counts;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_changes;
          Alcotest.test_case "flip-flops participate" `Quick test_ffs_participate;
          Alcotest.test_case "logic acyclic" `Quick test_logic_acyclic;
          Alcotest.test_case "pads on boundary" `Quick test_pads_on_boundary;
          Alcotest.test_case "rejects inconsistent counts" `Quick
            test_generator_rejects_inconsistent;
          Alcotest.test_case "locality knobs" `Quick test_locality_reduces_pairs;
          QCheck_alcotest.to_alcotest prop_generator_no_dangling_nets;
          Alcotest.test_case "paper netlists pinned" `Quick test_paper_netlists_pinned;
        ] );
    ]
