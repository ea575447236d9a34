type t = { xmin : float; ymin : float; xmax : float; ymax : float }

let make ~xmin ~ymin ~xmax ~ymax =
  if xmax < xmin || ymax < ymin then invalid_arg "Rect.make: inverted bounds";
  { xmin; ymin; xmax; ymax }

let width r = r.xmax -. r.xmin
let height r = r.ymax -. r.ymin
let center r = Point.make ((r.xmin +. r.xmax) /. 2.0) ((r.ymin +. r.ymax) /. 2.0)

let contains r (p : Point.t) =
  p.x >= r.xmin && p.x <= r.xmax && p.y >= r.ymin && p.y <= r.ymax

let expand r m =
  { xmin = r.xmin -. m; ymin = r.ymin -. m; xmax = r.xmax +. m; ymax = r.ymax +. m }

let clamp_point r (p : Point.t) =
  Point.make
    (Rc_util.Approx.clamp ~lo:r.xmin ~hi:r.xmax p.x)
    (Rc_util.Approx.clamp ~lo:r.ymin ~hi:r.ymax p.y)
