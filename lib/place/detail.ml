open Rc_geom
open Rc_netlist

type stats = {
  initial_hpwl : float;
  final_hpwl : float;
  moves : int;
  swaps : int;
  passes : int;
}

(* nets touching a cell: its driven net plus its fan-in nets *)
let nets_of netlist c =
  let d = Netlist.driver_net netlist c in
  let rest = Netlist.fanin_nets netlist c in
  if d >= 0 then d :: rest else rest

let hpwl_of_nets netlist positions nets =
  List.fold_left (fun acc ni -> acc +. Wirelength.net_hpwl netlist positions ni) 0.0 nets

(* median of the other pins on the cell's nets — the HPWL sweet spot *)
let median_target netlist positions c =
  let xs = ref [] and ys = ref [] in
  List.iter
    (fun ni ->
      let net = Netlist.net netlist ni in
      let add p =
        xs := (p : Point.t).Point.x :: !xs;
        ys := p.Point.y :: !ys
      in
      let pos_of d =
        if Netlist.movable netlist d then positions.(d) else Netlist.pad_position netlist d
      in
      if net.Netlist.driver <> c then add (pos_of net.Netlist.driver);
      Array.iter (fun s -> if s <> c then add (pos_of s)) net.Netlist.sinks)
    (nets_of netlist c);
  match !xs with
  | [] -> None
  | _ ->
      let med l =
        let a = Array.of_list l in
        Array.sort compare a;
        a.(Array.length a / 2)
      in
      Some (Point.make (med !xs) (med !ys))

let refine ?(max_passes = 4) ?(frozen = fun _ -> false) netlist ~chip ~site positions =
  if site <= 0.0 then invalid_arg "Detail.refine: non-positive site pitch";
  let swap_radius = 4.0 *. site in
  let rng = Rc_util.Rng.create 31 in
  let pos = Array.copy positions in
  let nx = max 1 (int_of_float (Rect.width chip /. site)) in
  let ny = max 1 (int_of_float (Rect.height chip /. site)) in
  let site_center ix iy =
    Point.make
      (chip.Rect.xmin +. ((float_of_int ix +. 0.5) *. site))
      (chip.Rect.ymin +. ((float_of_int iy +. 0.5) *. site))
  in
  let clampi v hi = max 0 (min hi v) in
  let site_of (p : Point.t) =
    ( clampi (int_of_float ((p.Point.x -. chip.Rect.xmin) /. site)) (nx - 1),
      clampi (int_of_float ((p.Point.y -. chip.Rect.ymin) /. site)) (ny - 1) )
  in
  (* occupancy map: site -> cell *)
  let occ = Hashtbl.create 1024 in
  let movable = ref [] in
  for c = Netlist.n_cells netlist - 1 downto 0 do
    if Netlist.movable netlist c then begin
      Hashtbl.replace occ (site_of pos.(c)) c;
      if not (frozen c) then movable := c :: !movable
    end
  done;
  let movable = Array.of_list !movable in
  let initial_hpwl = Wirelength.total netlist pos in
  let moves = ref 0 and swaps = ref 0 and passes = ref 0 in
  let improved = ref true in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    Array.iter
      (fun c ->
        (* median move: find a free site near the median of neighbors *)
        (match median_target netlist pos c with
        | None -> ()
        | Some target ->
            let tix, tiy = site_of (Rect.clamp_point chip target) in
            let nets = nets_of netlist c in
            let before = hpwl_of_nets netlist pos nets in
            let best = ref None in
            for dx = -1 to 1 do
              for dy = -1 to 1 do
                let ix = tix + dx and iy = tiy + dy in
                if ix >= 0 && ix < nx && iy >= 0 && iy < ny && not (Hashtbl.mem occ (ix, iy))
                then begin
                  let old = pos.(c) in
                  pos.(c) <- site_center ix iy;
                  let after = hpwl_of_nets netlist pos nets in
                  pos.(c) <- old;
                  let gain = before -. after in
                  match !best with
                  | Some (g, _, _) when g >= gain -> ()
                  | _ -> if gain > 1e-9 then best := Some (gain, ix, iy)
                end
              done
            done;
            (match !best with
            | Some (_, ix, iy) ->
                Hashtbl.remove occ (site_of pos.(c));
                pos.(c) <- site_center ix iy;
                Hashtbl.replace occ (ix, iy) c;
                incr moves;
                improved := true
            | None -> ()));
        (* pairwise swap with a random nearby cell *)
        let cix, ciy = site_of pos.(c) in
        let r = max 1 (int_of_float (swap_radius /. site)) in
        let ox = cix + Rc_util.Rng.int_in rng (-r) r
        and oy = ciy + Rc_util.Rng.int_in rng (-r) r in
        match Hashtbl.find_opt occ (ox, oy) with
        | Some d when d <> c && not (frozen d) ->
            let nets =
              List.sort_uniq compare (nets_of netlist c @ nets_of netlist d)
            in
            let before = hpwl_of_nets netlist pos nets in
            let pc = pos.(c) and pd = pos.(d) in
            pos.(c) <- pd;
            pos.(d) <- pc;
            let after = hpwl_of_nets netlist pos nets in
            if after < before -. 1e-9 then begin
              Hashtbl.replace occ (site_of pos.(c)) c;
              Hashtbl.replace occ (site_of pos.(d)) d;
              incr swaps;
              improved := true
            end
            else begin
              pos.(c) <- pc;
              pos.(d) <- pd
            end
        | _ -> ())
      movable
  done;
  let final_hpwl = Wirelength.total netlist pos in
  (pos, { initial_hpwl; final_hpwl; moves = !moves; swaps = !swaps; passes = !passes })
