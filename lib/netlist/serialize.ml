let to_string ~chip netlist =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "# rotary-clock netlist format v1\n");
  Buffer.add_string b (Printf.sprintf "circuit %s\n" (Netlist.name netlist));
  Buffer.add_string b
    (Printf.sprintf "chip %.10g %.10g %.10g %.10g\n" chip.Rc_geom.Rect.xmin chip.Rc_geom.Rect.ymin
       chip.Rc_geom.Rect.xmax chip.Rc_geom.Rect.ymax);
  for c = 0 to Netlist.n_cells netlist - 1 do
    match Netlist.kind netlist c with
    | Netlist.Logic -> Buffer.add_string b (Printf.sprintf "cell %d logic\n" c)
    | Netlist.Flipflop -> Buffer.add_string b (Printf.sprintf "cell %d ff\n" c)
    | Netlist.Input_pad ->
        let p = Netlist.pad_position netlist c in
        Buffer.add_string b
          (Printf.sprintf "pad %d in %.10g %.10g\n" c p.Rc_geom.Point.x p.Rc_geom.Point.y)
    | Netlist.Output_pad ->
        let p = Netlist.pad_position netlist c in
        Buffer.add_string b
          (Printf.sprintf "pad %d out %.10g %.10g\n" c p.Rc_geom.Point.x p.Rc_geom.Point.y)
  done;
  Netlist.iter_nets netlist (fun _ net ->
      Buffer.add_string b (Printf.sprintf "net %d" net.Netlist.driver);
      Array.iter (fun s -> Buffer.add_string b (Printf.sprintf " %d" s)) net.Netlist.sinks;
      Buffer.add_char b '\n');
  Buffer.contents b

let write_file ~path ~chip netlist =
  let oc = open_out path in
  output_string oc (to_string ~chip netlist);
  close_out oc

let placement_to_string positions =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun c (p : Rc_geom.Point.t) ->
      Buffer.add_string b (Printf.sprintf "%d %.10g %.10g\n" c p.Rc_geom.Point.x p.Rc_geom.Point.y))
    positions;
  Buffer.contents b
