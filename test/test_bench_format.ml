(* Tests for the ISCAS89 .bench reader/writer. The embedded sample is a
   small synchronous circuit in the classic style (not a verbatim copy of
   any published benchmark). *)

open Rc_netlist

let chip = Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:400.0 ~ymax:400.0

let sample =
  {|# small sequential circuit, iscas89 style
INPUT(G0)
INPUT(G1)
INPUT(G2)
OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)

G14 = NOT(G0)
G8  = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9  = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
G3  = XOR(G2, G7)
G17 = NOT(G11)
|}

let parse s = Bench_format.of_string ~chip s

let test_parse_sample () =
  match parse sample with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      Alcotest.(check int) "flip-flops" 3 (Netlist.n_ffs nl);
      (* 3 inputs + 1 output pad *)
      Alcotest.(check int) "pads" 4
        (Netlist.n_cells nl - Array.length (Netlist.logic_cells nl) - Netlist.n_ffs nl);
      (* 11 logic gates *)
      Alcotest.(check int) "logic" 11 (Array.length (Netlist.logic_cells nl));
      (* every net has sinks; drivers well-formed by Netlist.make *)
      Netlist.iter_nets nl (fun _ net ->
          Alcotest.(check bool) "sinks nonempty" true (Array.length net.Netlist.sinks > 0))

let test_fanout_reconstructed () =
  match parse sample with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      (* G14 feeds G8 and G10: its net has two sinks *)
      let g14 =
        (* cells are numbered in definition order: inputs 0-2, dffs 3-5,
           then gates; G14 is the first gate defined -> id 6 *)
        6
      in
      Alcotest.(check bool) "G14 is logic" true (Netlist.kind nl g14 = Netlist.Logic);
      let net = Netlist.net nl (Netlist.driver_net nl g14) in
      Alcotest.(check int) "two sinks" 2 (Array.length net.Netlist.sinks)

let test_parse_errors () =
  let bad s = match parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown gate" true (bad "G1 = FROB(G0)\nINPUT(G0)\n");
  Alcotest.(check bool) "undefined signal" true (bad "INPUT(G0)\nG1 = AND(G0, G9)\n");
  Alcotest.(check bool) "duplicate definition" true
    (bad "INPUT(G0)\nG1 = NOT(G0)\nG1 = NOT(G0)\n");
  Alcotest.(check bool) "garbage line" true (bad "INPUT(G0)\nwhatever\n");
  Alcotest.(check bool) "empty gate args" true (bad "INPUT(G0)\nG1 = AND()\n");
  Alcotest.(check bool) "comments ok" false (bad "# only comments\nINPUT(G0)\nG2 = NOT(G0)\nOUTPUT(G2)\n")

let test_dff_boundary () =
  (* combinational logic must remain acyclic even though the circuit has
     feedback through flip-flops *)
  match parse sample with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      let n = Netlist.n_cells nl in
      let g = Rc_graph.Digraph.create n in
      Netlist.iter_nets nl (fun _ net ->
          if Netlist.kind nl net.Netlist.driver = Netlist.Logic then
            Array.iter
              (fun s ->
                if Netlist.kind nl s = Netlist.Logic then
                  Rc_graph.Digraph.add_edge g net.Netlist.driver s 1.0)
              net.Netlist.sinks);
      Alcotest.(check bool) "acyclic through logic" true (Rc_graph.Dag.topological_order g <> None)

let test_flow_runs_on_parsed_circuit () =
  (* the imported netlist drives the whole stack: placement, STA,
     scheduling, assignment *)
  match parse sample with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      let tech = Rc_tech.Tech.default in
      let placed = Rc_place.Qplace.initial nl ~chip in
      let sta = Rc_timing.Sta.analyze tech nl ~positions:placed.Rc_place.Qplace.positions in
      Alcotest.(check bool) "has pairs" true (Array.length sta.Rc_timing.Sta.src > 0);
      let problem =
        Rc_skew.Skew_problem.make ~n:(Netlist.n_ffs nl) ~src:sta.Rc_timing.Sta.src
          ~dst:sta.Rc_timing.Sta.dst ~d_max:sta.Rc_timing.Sta.d_max
          ~d_min:sta.Rc_timing.Sta.d_min ~period:1000.0 ~t_setup:40.0 ~t_hold:15.0
      in
      match Rc_skew.Max_slack.solve_graph problem with
      | None -> Alcotest.fail "schedulable"
      | Some r -> Alcotest.(check bool) "positive slack" true (r.Rc_skew.Max_slack.slack > 0.0)

let test_roundtrip_through_writer () =
  match parse sample with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl -> (
      let text = Reference_kernels.bench_to_string nl in
      match Bench_format.of_string ~chip text with
      | Error e -> Alcotest.failf "re-parse failed: %s" e
      | Ok nl2 ->
          Alcotest.(check int) "same ffs" (Netlist.n_ffs nl) (Netlist.n_ffs nl2);
          Alcotest.(check int) "same nets" (Netlist.n_nets nl) (Netlist.n_nets nl2);
          Alcotest.(check int) "same cells" (Netlist.n_cells nl) (Netlist.n_cells nl2))

let test_case_insensitive_gates () =
  match parse "INPUT(a)\nb = nand(a, a)\nOUTPUT(b)\n" with
  | Error e -> Alcotest.failf "lowercase gate rejected: %s" e
  | Ok nl -> Alcotest.(check int) "one gate" 1 (Array.length (Netlist.logic_cells nl))

let () =
  Alcotest.run "rc_bench_format"
    [
      ( "parser",
        [
          Alcotest.test_case "sample circuit" `Quick test_parse_sample;
          Alcotest.test_case "fan-out reconstruction" `Quick test_fanout_reconstructed;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "dff boundary acyclic" `Quick test_dff_boundary;
          Alcotest.test_case "case-insensitive gates" `Quick test_case_insensitive_gates;
        ] );
      ( "integration",
        [
          Alcotest.test_case "flow stack runs on import" `Quick test_flow_runs_on_parsed_circuit;
          Alcotest.test_case "writer roundtrip" `Quick test_roundtrip_through_writer;
        ] );
    ]
