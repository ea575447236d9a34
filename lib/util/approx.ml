let default_eps = 1e-9

let equal ?(eps = default_eps) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)
