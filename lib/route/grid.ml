open Rc_geom

type t = {
  chip : Rect.t;
  nx : int;
  ny : int;
  capacity : int;
  (* horizontal edges: between (x,y) and (x+1,y): h.(x).(y), x < nx-1
     vertical edges: between (x,y) and (x,y+1): v.(x).(y), y < ny-1 *)
  h : int array array;
  v : int array array;
}

let create ~chip ~nx ~ny ~capacity =
  if nx <= 0 || ny <= 0 then invalid_arg "Grid.create: non-positive dimensions";
  if capacity <= 0 then invalid_arg "Grid.create: non-positive capacity";
  {
    chip;
    nx;
    ny;
    capacity;
    h = Array.make_matrix (max (nx - 1) 1) ny 0;
    v = Array.make_matrix nx (max (ny - 1) 1) 0;
  }

let nx t = t.nx
let ny t = t.ny
let capacity t = t.capacity

let cell_pitch t =
  (Rect.width t.chip /. float_of_int t.nx, Rect.height t.chip /. float_of_int t.ny)

let cell_of t (p : Point.t) =
  let pw, ph = cell_pitch t in
  let clampi v hi = max 0 (min hi v) in
  ( clampi (int_of_float ((p.Point.x -. t.chip.Rect.xmin) /. pw)) (t.nx - 1),
    clampi (int_of_float ((p.Point.y -. t.chip.Rect.ymin) /. ph)) (t.ny - 1) )

let edge_ref t (x1, y1) (x2, y2) =
  if y1 = y2 && abs (x1 - x2) = 1 then (t.h.(min x1 x2), y1)
  else if x1 = x2 && abs (y1 - y2) = 1 then (t.v.(x1), min y1 y2)
  else invalid_arg "Grid: cells are not adjacent"

let usage t a b =
  let arr, i = edge_ref t a b in
  arr.(i)

let add_usage t a b delta =
  let arr, i = edge_ref t a b in
  arr.(i) <- arr.(i) + delta

let fold_edges t f init =
  let acc = ref init in
  for x = 0 to t.nx - 2 do
    for y = 0 to t.ny - 1 do
      acc := f !acc t.h.(x).(y)
    done
  done;
  for x = 0 to t.nx - 1 do
    for y = 0 to t.ny - 2 do
      acc := f !acc t.v.(x).(y)
    done
  done;
  !acc

let overflow t = fold_edges t (fun acc u -> acc + max 0 (u - t.capacity)) 0

let congestion_map t =
  let m = Array.make_matrix t.nx t.ny 0.0 in
  let touch x y u =
    m.(x).(y) <- Float.max m.(x).(y) (float_of_int u /. float_of_int t.capacity)
  in
  for x = 0 to t.nx - 2 do
    for y = 0 to t.ny - 1 do
      touch x y t.h.(x).(y);
      touch (x + 1) y t.h.(x).(y)
    done
  done;
  for x = 0 to t.nx - 1 do
    for y = 0 to t.ny - 2 do
      touch x y t.v.(x).(y);
      touch x (y + 1) t.v.(x).(y)
    done
  done;
  m
