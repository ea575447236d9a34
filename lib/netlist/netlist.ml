type kind = Logic | Flipflop | Input_pad | Output_pad

type net = { driver : int; sinks : int array }

type t = {
  name : string;
  kinds : kind array;
  nets : net array;
  driver_net : int array;
  fanin_nets : int list array;
  pad_pos : (int, Rc_geom.Point.t) Hashtbl.t;
  ffs : int array;
  logic : int array;
}

let make ~name ~kinds ~nets ~pad_positions =
  let n = Array.length kinds in
  let driver_net = Array.make n (-1) in
  let fanin_nets = Array.make n [] in
  Array.iteri
    (fun ni { driver; sinks } ->
      if driver < 0 || driver >= n then invalid_arg "Netlist.make: driver out of range";
      if Array.length sinks = 0 then invalid_arg "Netlist.make: net without sinks";
      if kinds.(driver) = Output_pad then invalid_arg "Netlist.make: output pad drives a net";
      if driver_net.(driver) >= 0 then invalid_arg "Netlist.make: cell drives two nets";
      driver_net.(driver) <- ni;
      Array.iter
        (fun s ->
          if s < 0 || s >= n then invalid_arg "Netlist.make: sink out of range";
          if s = driver then invalid_arg "Netlist.make: self-loop net";
          if kinds.(s) = Input_pad then invalid_arg "Netlist.make: input pad used as sink";
          fanin_nets.(s) <- ni :: fanin_nets.(s))
        sinks)
    nets;
  let pad_pos = Hashtbl.create 64 in
  List.iter
    (fun (c, p) ->
      if c < 0 || c >= n then invalid_arg "Netlist.make: pad id out of range";
      (match kinds.(c) with
      | Input_pad | Output_pad -> ()
      | _ -> invalid_arg "Netlist.make: position given for non-pad");
      Hashtbl.replace pad_pos c p)
    pad_positions;
  let collect pred =
    let acc = ref [] in
    for c = n - 1 downto 0 do
      if pred kinds.(c) then acc := c :: !acc
    done;
    Array.of_list !acc
  in
  let pad_ids = collect (fun k -> k = Input_pad || k = Output_pad) in
  Array.iter
    (fun c ->
      if not (Hashtbl.mem pad_pos c) then invalid_arg "Netlist.make: pad without position")
    pad_ids;
  {
    name;
    kinds;
    nets;
    driver_net;
    fanin_nets;
    pad_pos;
    ffs = collect (fun k -> k = Flipflop);
    logic = collect (fun k -> k = Logic);
  }

let name t = t.name
let n_cells t = Array.length t.kinds
let n_nets t = Array.length t.nets

let kind t c =
  if c < 0 || c >= n_cells t then invalid_arg "Netlist.kind: out of range";
  t.kinds.(c)

let is_ff t c = kind t c = Flipflop
let flip_flops t = Array.copy t.ffs
let logic_cells t = Array.copy t.logic
let n_ffs t = Array.length t.ffs

let net t ni =
  if ni < 0 || ni >= n_nets t then invalid_arg "Netlist.net: out of range";
  t.nets.(ni)

let iter_nets t f = Array.iteri f t.nets

let driver_net t c =
  if c < 0 || c >= n_cells t then invalid_arg "Netlist.driver_net: out of range";
  t.driver_net.(c)

let fanin_nets t c =
  if c < 0 || c >= n_cells t then invalid_arg "Netlist.fanin_nets: out of range";
  t.fanin_nets.(c)

let pad_position t c =
  match Hashtbl.find_opt t.pad_pos c with
  | Some p -> p
  | None -> invalid_arg "Netlist.pad_position: not a pad"

let movable t c =
  match kind t c with Logic | Flipflop -> true | Input_pad | Output_pad -> false
