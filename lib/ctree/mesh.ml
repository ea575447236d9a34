open Rc_geom

type t = { chip : Rect.t; grid : int }

let create ~chip ~grid =
  if grid < 1 then invalid_arg "Mesh.create: grid < 1";
  { chip; grid }

let mesh_wirelength t =
  let lines = float_of_int (t.grid + 1) in
  (lines *. Rect.width t.chip) +. (lines *. Rect.height t.chip)

let stub_length t (p : Point.t) =
  (* distance to the nearest horizontal or vertical grid wire *)
  let nearest_line coord origin span =
    let pitch = span /. float_of_int t.grid in
    let k = Float.round ((coord -. origin) /. pitch) in
    let k = Rc_util.Approx.clamp ~lo:0.0 ~hi:(float_of_int t.grid) k in
    Float.abs (coord -. (origin +. (k *. pitch)))
  in
  let dh = nearest_line p.Point.y t.chip.Rect.ymin (Rect.height t.chip) in
  let dv = nearest_line p.Point.x t.chip.Rect.xmin (Rect.width t.chip) in
  Float.min dh dv

type stats = {
  mesh_wl : float;
  stub_wl : float;
  total_cap : float;
  clock_power_mw : float;
  max_stub : float;
}

let stats tech t ~sinks =
  let mesh_wl = mesh_wirelength t in
  let stub_wl, pin_cap, max_stub =
    List.fold_left
      (fun (wl, cap, mx) (p, pin) ->
        let s = stub_length t p in
        (wl +. s, cap +. pin, Float.max mx s))
      (0.0, 0.0, 0.0) sinks
  in
  let total_cap = ((mesh_wl +. stub_wl) *. tech.Rc_tech.Tech.c_wire) +. pin_cap in
  let clock_power_mw =
    0.5 *. tech.Rc_tech.Tech.alpha_clock *. tech.Rc_tech.Tech.vdd *. tech.Rc_tech.Tech.vdd
    *. Rc_tech.Tech.f_clk_ghz tech *. total_cap *. 1e-3
  in
  { mesh_wl; stub_wl; total_cap; clock_power_mw; max_stub }
