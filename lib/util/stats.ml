let sum a =
  let s = ref 0.0 and c = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t)
    a;
  !s

let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

let min_max a =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (a.(0), a.(0)) a

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
    sqrt (acc /. float_of_int n)
  end

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let s = Array.copy a in
  Array.sort compare s;
  if n = 1 then s.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let pct_improvement ~from ~to_ =
  if Float.abs from < 1e-300 then nan else (from -. to_) /. from *. 100.0
