open Rc_geom

type t = {
  rings : Ring.t array;
  grid : int;
  chip : Rect.t;
  period : float;
}

let create ?(period = 1000.0) ~chip ~grid () =
  if grid < 1 then invalid_arg "Ring_array.create: grid < 1";
  let pw = Rect.width chip /. float_of_int grid in
  let ph = Rect.height chip /. float_of_int grid in
  let rings =
    Array.init (grid * grid) (fun id ->
        let gx = id mod grid and gy = id / grid in
        let rect =
          Rect.make
            ~xmin:(chip.Rect.xmin +. (float_of_int gx *. pw))
            ~ymin:(chip.Rect.ymin +. (float_of_int gy *. ph))
            ~xmax:(chip.Rect.xmin +. (float_of_int (gx + 1) *. pw))
            ~ymax:(chip.Rect.ymin +. (float_of_int (gy + 1) *. ph))
        in
        (* checkerboard direction so abutting edges co-propagate *)
        let clockwise = (gx + gy) mod 2 = 0 in
        Ring.make ~id ~rect ~clockwise ~t_ref:0.0 ~period)
  in
  { rings; grid; chip; period }

let n_rings t = Array.length t.rings

let ring t i =
  if i < 0 || i >= n_rings t then invalid_arg "Ring_array.ring: out of range";
  t.rings.(i)

let rings t = Array.copy t.rings
let grid t = t.grid
let period t = t.period

let containing_ring t (p : Point.t) =
  let pw = Rect.width t.chip /. float_of_int t.grid in
  let ph = Rect.height t.chip /. float_of_int t.grid in
  let clampi v hi = max 0 (min hi v) in
  let gx = clampi (int_of_float ((p.Point.x -. t.chip.Rect.xmin) /. pw)) (t.grid - 1) in
  let gy = clampi (int_of_float ((p.Point.y -. t.chip.Rect.ymin) /. ph)) (t.grid - 1) in
  (gy * t.grid) + gx

(* Nearest rings by (manhattan distance to ring center, ring id). The
   rings form a uniform grid, so instead of scoring all of them the
   search expands Chebyshev shells of tiles around the query's tile and
   stops once no unvisited shell can hold a center closer than the k-th
   best so far (strictly closer — equal distances tie-break on ring id,
   which only shells already visited can win). The collected superset is
   sorted with the same comparator as the full scan, and distinct ids
   make the order total, so the result is identical to sorting every
   ring. *)
(* the (distance, id) order of the polymorphic compare on the pairs,
   through the typed comparisons: Float.compare orders floats as
   compare does (nan least, -0.0 = 0.0) *)
let by_distance_then_id ((d1 : float), (i1 : int)) (d2, i2) =
  let c = Float.compare d1 d2 in
  if c <> 0 then c else Int.compare i1 i2

let rings_near t p k =
  let nr = Array.length t.rings in
  let kk = min k nr in
  let score i = (Point.manhattan (Rect.center t.rings.(i).Ring.rect) p, i) in
  if t.grid <= 4 || 4 * kk >= nr then begin
    let scored = Array.init nr score in
    Array.sort by_distance_then_id scored;
    Array.to_list (Array.sub scored 0 kk) |> List.map snd
  end
  else begin
    (* Tile pitch is the ring pitch (ring 0's rect), not die/grid: the
       two agree on today's uniform arrays, but anchoring on the ring
       keeps the seed tile and shell bounds tied to actual ring geometry
       rather than the die extent, so the search stays O(shells) per
       query no matter how large the die grows around the array. *)
    let r0 = t.rings.(0).Ring.rect in
    let pw = Rect.width r0 and ph = Rect.height r0 in
    let clampi v hi = max 0 (min hi v) in
    let cx = clampi (int_of_float ((p.Point.x -. r0.Rect.xmin) /. pw)) (t.grid - 1) in
    let cy = clampi (int_of_float ((p.Point.y -. r0.Rect.ymin) /. ph)) (t.grid - 1) in
    let buf = ref [] and count = ref 0 in
    let add gx gy =
      if gx >= 0 && gx < t.grid && gy >= 0 && gy < t.grid then begin
        buf := score ((gy * t.grid) + gx) :: !buf;
        incr count
      end
    in
    let collect_shell s =
      if s = 0 then add cx cy
      else begin
        for gx = cx - s to cx + s do
          add gx (cy - s);
          add gx (cy + s)
        done;
        for gy = cy - s + 1 to cy + s - 1 do
          add (cx - s) gy;
          add (cx + s) gy
        done
      end
    in
    (* smallest possible distance from [p] to a center in any shell >= s:
       such a center is offset at least s tiles along some axis, putting
       its coordinate at least as far from [p] as the boundary row or
       column's actual ring-center coordinate — exact, not reconstructed
       from the die extent (bounds for directions that run off the grid
       don't exist) *)
    let center_x gx = (Rect.center t.rings.(gx).Ring.rect).Point.x in
    let center_y gy = (Rect.center t.rings.(gy * t.grid).Ring.rect).Point.y in
    let shell_lower_bound s =
      let left = if cx - s >= 0 then p.Point.x -. center_x (cx - s) else infinity
      and right =
        if cx + s <= t.grid - 1 then center_x (cx + s) -. p.Point.x else infinity
      and down = if cy - s >= 0 then p.Point.y -. center_y (cy - s) else infinity
      and up =
        if cy + s <= t.grid - 1 then center_y (cy + s) -. p.Point.y else infinity
      in
      Float.min (Float.min left right) (Float.min down up)
    in
    let result = ref [] and finished = ref false and s = ref 0 in
    while not !finished do
      collect_shell !s;
      if !count >= kk then begin
        let arr = Array.of_list !buf in
        Array.sort by_distance_then_id arr;
        let kth, _ = arr.(kk - 1) in
        if shell_lower_bound (!s + 1) > kth then begin
          result := Array.to_list (Array.sub arr 0 kk) |> List.map snd;
          finished := true
        end
      end;
      incr s
    done;
    !result
  end

let default_capacities t ~n_ffs ~slack =
  if n_ffs < 0 then invalid_arg "Ring_array.default_capacities: negative n_ffs";
  let per = int_of_float (Float.ceil (slack *. float_of_int n_ffs /. float_of_int (n_rings t))) in
  Array.make (n_rings t) (max per 1)
