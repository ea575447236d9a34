(* Tests for the netlist interchange format and the SVG renderer. *)

open Rc_netlist

let chip = Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:500.0 ~ymax:500.0

let sample =
  lazy
    (Generator.generate
       {
         Generator.default_config with
         Generator.name = "ser";
         n_logic = 40;
         n_ffs = 8;
         n_nets = 46;
         n_inputs = 3;
         n_outputs = 3;
         chip;
         seed = 77;
       })

let netlist_equal a b =
  let sig_of nl =
    let nets = ref [] in
    Netlist.iter_nets nl (fun i n -> nets := (i, n.Netlist.driver, Array.to_list n.Netlist.sinks) :: !nets);
    let kinds = List.init (Netlist.n_cells nl) (Netlist.kind nl) in
    (Netlist.name nl, kinds, !nets)
  in
  sig_of a = sig_of b

let test_roundtrip () =
  let nl = Lazy.force sample in
  let text = Serialize.to_string ~chip nl in
  match Reference_kernels.net_of_string text with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok (chip', nl') ->
      Alcotest.(check bool) "chip preserved" true
        (Rc_util.Approx.equal chip'.Rc_geom.Rect.xmax 500.0);
      Alcotest.(check bool) "netlist identical" true (netlist_equal nl nl');
      (* pads keep their positions *)
      for p = 0 to Netlist.n_cells nl - 1 do
        if not (Netlist.movable nl p) then
          Alcotest.(check bool) "pad position" true
            (Rc_geom.Point.equal (Netlist.pad_position nl p) (Netlist.pad_position nl' p))
      done

let test_roundtrip_twice_stable () =
  let nl = Lazy.force sample in
  let t1 = Serialize.to_string ~chip nl in
  match Reference_kernels.net_of_string t1 with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok (chip2, nl2) ->
      Alcotest.(check string) "fixed point" t1 (Serialize.to_string ~chip:chip2 nl2)

let test_parse_errors () =
  let bad text =
    match Reference_kernels.net_of_string text with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "missing circuit" true (bad "chip 0 0 1 1\n");
  Alcotest.(check bool) "missing chip" true (bad "circuit x\n");
  Alcotest.(check bool) "unknown directive" true
    (bad "circuit x\nchip 0 0 1 1\nfrobnicate 3\n");
  Alcotest.(check bool) "bad integer" true
    (bad "circuit x\nchip 0 0 1 1\ncell zero logic\n");
  Alcotest.(check bool) "net without sinks" true
    (bad "circuit x\nchip 0 0 1 1\ncell 0 logic\nnet 0\n");
  Alcotest.(check bool) "comments and blanks ok" false
    (bad "# hi\n\ncircuit x\nchip 0 0 1 1\ncell 0 logic\ncell 1 ff\nnet 1 0\nnet 0 1\n")

let test_file_roundtrip () =
  let nl = Lazy.force sample in
  let path = Filename.temp_file "rcnl" ".net" in
  Serialize.write_file ~path ~chip nl;
  (match Reference_kernels.net_of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> Alcotest.failf "read error: %s" e
  | Ok (_, nl') -> Alcotest.(check bool) "file roundtrip" true (netlist_equal nl nl'));
  Sys.remove path

let test_placement_roundtrip () =
  let nl = Lazy.force sample in
  let rng = Rc_util.Rng.create 5 in
  let pos =
    Array.init (Netlist.n_cells nl) (fun _ ->
        Rc_geom.Point.make (Rc_util.Rng.float rng 500.0) (Rc_util.Rng.float rng 500.0))
  in
  let text = Serialize.placement_to_string pos in
  match Reference_kernels.placement_of_string ~n_cells:(Netlist.n_cells nl) text with
  | Error e -> Alcotest.failf "placement parse: %s" e
  | Ok pos' ->
      Alcotest.(check bool) "positions preserved" true
        (Array.for_all2 (fun a b -> Rc_geom.Point.manhattan a b < 1e-4) pos pos')

let test_placement_errors () =
  Alcotest.(check bool) "missing cells" true
    (match Reference_kernels.placement_of_string ~n_cells:3 "0 1 2\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "garbage" true
    (match Reference_kernels.placement_of_string ~n_cells:1 "0 x y\n" with Error _ -> true | Ok _ -> false)

(* --- SVG rendering --- *)

let test_svg_structure () =
  let nl = Lazy.force sample in
  let rings = Rc_rotary.Ring_array.create ~chip ~grid:2 () in
  let positions =
    Array.init (Netlist.n_cells nl) (fun c ->
        if Netlist.movable nl c then Rc_geom.Point.make 100.0 100.0
        else Netlist.pad_position nl c)
  in
  let ffs = Netlist.flip_flops nl in
  let taps =
    Array.to_list
      (Array.map
         (fun c ->
           ( c,
             Rc_rotary.Tapping.solve Rc_tech.Tech.default
               (Rc_rotary.Ring_array.ring rings 0)
               ~ff:positions.(c) ~target:100.0 ))
         ffs)
  in
  let doc = Rc_viz.Layout.render ~chip ~netlist:nl ~positions ~rings ~taps in
  Alcotest.(check bool) "xml header" true (String.length doc > 0 && String.sub doc 0 5 = "<?xml");
  let count needle =
    let n = ref 0 and i = ref 0 in
    let nl_ = String.length needle in
    while !i + nl_ <= String.length doc do
      if String.sub doc !i nl_ = needle then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check bool) "closes svg" true (count "</svg>" = 1);
  (* 4 rings drawn as nested pairs + die outline + ff markers *)
  Alcotest.(check bool) "ring rectangles" true (count "<rect" >= (2 * 4) + 1 + Array.length ffs);
  Alcotest.(check int) "one stub line per ff" (Array.length ffs) (count "<line");
  Alcotest.(check bool) "has text label" true (count "<text" = 1)

let test_svg_write () =
  let nl = Lazy.force sample in
  let rings = Rc_rotary.Ring_array.create ~chip ~grid:2 () in
  let positions =
    Array.init (Netlist.n_cells nl) (fun c ->
        if Netlist.movable nl c then Rc_geom.Point.make 100.0 100.0
        else Netlist.pad_position nl c)
  in
  let path = Filename.temp_file "rcviz" ".svg" in
  Rc_viz.Layout.write ~path ~chip ~netlist:nl ~positions ~rings ~taps:[];
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "file holds the rendered document"
    (Rc_viz.Layout.render ~chip ~netlist:nl ~positions ~rings ~taps:[])
    text

let prop_roundtrip_random =
  QCheck.Test.make ~name:"serialization round-trips random circuits" ~count:20
    QCheck.small_int (fun seed ->
      let nl =
        Generator.generate
          {
            Generator.default_config with
            Generator.name = "rt";
            n_logic = 30;
            n_ffs = 6;
            n_nets = 35;
            n_inputs = 2;
            n_outputs = 2;
            chip;
            seed = seed + 9;
          }
      in
      match Reference_kernels.net_of_string (Serialize.to_string ~chip nl) with
      | Ok (_, nl') -> netlist_equal nl nl'
      | Error _ -> false)

let () =
  Alcotest.run "rc_serialize"
    [
      ( "netlist format",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "fixed point" `Quick test_roundtrip_twice_stable;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
        ] );
      ( "placement format",
        [
          Alcotest.test_case "roundtrip" `Quick test_placement_roundtrip;
          Alcotest.test_case "errors" `Quick test_placement_errors;
        ] );
      ( "svg",
        [
          Alcotest.test_case "document structure" `Quick test_svg_structure;
          Alcotest.test_case "file write" `Quick test_svg_write;
        ] );
    ]
