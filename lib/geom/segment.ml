type t = { a : Point.t; b : Point.t }

let make (a : Point.t) (b : Point.t) =
  if not (Rc_util.Approx.equal a.x b.x || Rc_util.Approx.equal a.y b.y) then
    invalid_arg "Segment.make: not axis-aligned";
  { a; b }

let length s = Point.manhattan s.a s.b
let is_horizontal s = Rc_util.Approx.equal s.a.y s.b.y

let point_at s d =
  let len = length s in
  let d = Rc_util.Approx.clamp ~lo:0.0 ~hi:len d in
  if len <= 0.0 then s.a
  else
    let t = d /. len in
    Point.make (s.a.x +. (t *. (s.b.x -. s.a.x))) (s.a.y +. (t *. (s.b.y -. s.a.y)))

let param_of_point s (p : Point.t) =
  let len = length s in
  if len <= 0.0 then 0.0
  else if is_horizontal s then
    let d = (p.x -. s.a.x) /. (s.b.x -. s.a.x) *. len in
    Rc_util.Approx.clamp ~lo:0.0 ~hi:len d
  else
    let d = (p.y -. s.a.y) /. (s.b.y -. s.a.y) *. len in
    Rc_util.Approx.clamp ~lo:0.0 ~hi:len d

let manhattan_to_point s p =
  let q = point_at s (param_of_point s p) in
  Point.manhattan q p
