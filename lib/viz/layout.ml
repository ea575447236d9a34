open Rc_geom

let render ~chip ~netlist ~positions ~rings ~taps =
  let svg = Svg.create ~width:(Rect.width chip) ~height:(Rect.height chip) in
  Svg.rect svg ~stroke:"#000" ~width:2.0 chip;
  (* rings: the differential pair drawn as two nested squares *)
  Array.iter
    (fun (r : Rc_rotary.Ring.t) ->
      Svg.rect svg ~stroke:"#2ca02c" ~width:2.0 r.Rc_rotary.Ring.rect;
      Svg.rect svg ~stroke:"#98df8a" ~width:1.0 (Rect.expand r.Rc_rotary.Ring.rect (-6.0)))
    (Rc_rotary.Ring_array.rings rings);
  (* cells *)
  for c = 0 to Rc_netlist.Netlist.n_cells netlist - 1 do
    match Rc_netlist.Netlist.kind netlist c with
    | Rc_netlist.Netlist.Logic -> Svg.circle svg ~fill:"#9ecae1" ~r:1.5 positions.(c)
    | Rc_netlist.Netlist.Flipflop -> ()
    | _ -> Svg.circle svg ~fill:"#7f7f7f" ~r:2.5 (Rc_netlist.Netlist.pad_position netlist c)
  done;
  (* tapping stubs then flip-flop markers on top *)
  List.iter
    (fun (cell, (tap : Rc_rotary.Tapping.tap)) ->
      Svg.line svg ~stroke:"#d62728" ~width:1.2 positions.(cell) tap.Rc_rotary.Tapping.point;
      Svg.circle svg ~fill:"#2ca02c" ~r:2.5 tap.Rc_rotary.Tapping.point)
    taps;
  Array.iter
    (fun c -> Svg.square_marker svg ~fill:"#d62728" ~half:3.0 positions.(c))
    (Rc_netlist.Netlist.flip_flops netlist);
  Svg.text svg ~size:24.0
    (Point.make 10.0 (Rect.height chip -. 10.0))
    (Printf.sprintf "%s: %d cells, %d FFs, %d rings" (Rc_netlist.Netlist.name netlist)
       (Rc_netlist.Netlist.n_cells netlist)
       (Rc_netlist.Netlist.n_ffs netlist)
       (Rc_rotary.Ring_array.n_rings rings));
  Svg.to_string svg

let write ~path ~chip ~netlist ~positions ~rings ~taps =
  let doc = render ~chip ~netlist ~positions ~rings ~taps in
  let oc = open_out path in
  output_string oc doc;
  close_out oc
