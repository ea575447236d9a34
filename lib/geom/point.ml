type t = { x : float; y : float }

let make x y = { x; y }
let zero = { x = 0.0; y = 0.0 }
let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let scale k p = { x = k *. p.x; y = k *. p.y }
let manhattan a b = Float.abs (a.x -. b.x) +. Float.abs (a.y -. b.y)

let equal a b = Rc_util.Approx.equal a.x b.x && Rc_util.Approx.equal a.y b.y
