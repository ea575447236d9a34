type routed = {
  grid : Grid.t;
  wirelength : float;
  overflow : int;
  rounds : int;
}

(* normalized edge key between adjacent cells *)
let edge_key a b = if a <= b then (a, b) else (b, a)

let route_one grid history (src : int * int) (dst : int * int) =
  (* Dijkstra over g-cells with congestion-negotiated edge costs *)
  let nxg = Grid.nx grid and nyg = Grid.ny grid in
  let idx (x, y) = (y * nxg) + x in
  let n = nxg * nyg in
  let dist = Array.make n infinity and pred = Array.make n (-1) in
  let heap = Rc_graph.Heap.create () in
  dist.(idx src) <- 0.0;
  Rc_graph.Heap.push heap 0.0 (idx src);
  let cell_xy i = (i mod nxg, i / nxg) in
  let edge_cost a b =
    let u = Grid.usage grid a b in
    let cap = Grid.capacity grid in
    let over = max 0 (u + 1 - cap) in
    let hist = Option.value (Hashtbl.find_opt history (edge_key a b)) ~default:0.0 in
    1.0 +. (4.0 *. float_of_int over) +. hist
  in
  let rec search () =
    match Rc_graph.Heap.pop_min heap with
    | None -> ()
    | Some (d, i) ->
        if i = idx dst then ()
        else begin
          if d <= dist.(i) then begin
            let x, y = cell_xy i in
            List.iter
              (fun (x2, y2) ->
                if x2 >= 0 && x2 < nxg && y2 >= 0 && y2 < nyg then begin
                  let j = idx (x2, y2) in
                  let nd = d +. edge_cost (x, y) (x2, y2) in
                  if nd < dist.(j) -. 1e-12 then begin
                    dist.(j) <- nd;
                    pred.(j) <- i;
                    Rc_graph.Heap.push heap nd j
                  end
                end)
              [ (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ]
          end;
          search ()
        end
  in
  search ();
  (* reconstruct and commit usage *)
  let rec walk acc i = if i = -1 then acc else walk (cell_xy i :: acc) pred.(i) in
  let path = walk [] (idx dst) in
  let rec commit = function
    | a :: (b :: _ as rest) ->
        Grid.add_usage grid a b 1;
        commit rest
    | _ -> ()
  in
  commit path;
  path

let rip_up grid path =
  let rec go = function
    | a :: (b :: _ as rest) ->
        Grid.add_usage grid a b (-1);
        go rest
    | _ -> ()
  in
  go path

let path_length grid path =
  let pw, ph = Grid.cell_pitch grid in
  let rec go acc = function
    | (x1, _) :: ((x2, _) :: _ as rest) ->
        go (acc +. if x1 <> x2 then pw else ph) rest
    | _ -> acc
  in
  go 0.0 path

(* rip-up-and-reroute rounds after the first pass *)
let max_rounds = 5

let route_connections grid connections =
  let history = Hashtbl.create 256 in
  let endpoints =
    List.map (fun (a, b) -> (Grid.cell_of grid a, Grid.cell_of grid b)) connections
  in
  let paths = ref (List.map (fun (s, t) -> route_one grid history s t) endpoints) in
  let rounds = ref 1 in
  while Grid.overflow grid > 0 && !rounds < max_rounds do
    incr rounds;
    (* accumulate history on overflowed edges, rip everything up and
       re-route with the updated costs (PathFinder iteration) *)
    List.iter
      (fun path ->
        let rec scan = function
          | a :: (b :: _ as rest) ->
              let u = Grid.usage grid a b in
              if u > Grid.capacity grid then begin
                let k = edge_key a b in
                Hashtbl.replace history k
                  (1.0 +. Option.value (Hashtbl.find_opt history k) ~default:0.0)
              end;
              scan rest
          | _ -> ()
        in
        scan path)
      !paths;
    List.iter (rip_up grid) !paths;
    paths := List.map (fun (s, t) -> route_one grid history s t) endpoints
  done;
  let wirelength = List.fold_left (fun acc p -> acc +. path_length grid p) 0.0 !paths in
  { grid; wirelength; overflow = Grid.overflow grid; rounds = !rounds }

let route_netlist ~chip netlist positions =
  let grid = Grid.create ~chip ~nx:32 ~ny:32 ~capacity:24 in
  let connections = ref [] in
  Rc_netlist.Netlist.iter_nets netlist (fun ni _ ->
      let net = Rc_netlist.Netlist.net netlist ni in
      let pos c =
        if Rc_netlist.Netlist.movable netlist c then positions.(c)
        else Rc_netlist.Netlist.pad_position netlist c
      in
      let pts =
        pos net.Rc_netlist.Netlist.driver
        :: Array.to_list (Array.map pos net.Rc_netlist.Netlist.sinks)
      in
      let distinct =
        List.fold_left
          (fun acc p -> if List.exists (Rc_geom.Point.equal p) acc then acc else p :: acc)
          [] pts
      in
      if List.length distinct >= 2 then
        connections := Rc_place.Steiner.tree distinct @ !connections);
  route_connections grid !connections
