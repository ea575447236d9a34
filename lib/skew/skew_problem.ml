type t = {
  n : int;
  src : int array;
  dst : int array;
  d_max : float array;
  d_min : float array;
  period : float;
  t_setup : float;
  t_hold : float;
}

let make ~n ~src ~dst ~d_max ~d_min ~period ~t_setup ~t_hold =
  if n < 0 then invalid_arg "Skew_problem.make: negative n";
  let np = Array.length src in
  if Array.length dst <> np || Array.length d_max <> np || Array.length d_min <> np then
    invalid_arg "Skew_problem.make: pair arrays differ in length";
  for p = 0 to np - 1 do
    let i = src.(p) and j = dst.(p) in
    if i < 0 || i >= n || j < 0 || j >= n then
      invalid_arg "Skew_problem.make: pair index out of range";
    if d_min.(p) > d_max.(p) +. 1e-9 then invalid_arg "Skew_problem.make: d_min > d_max"
  done;
  { n; src; dst; d_max; d_min; period; t_setup; t_hold }

let n_pairs t = Array.length t.src

let fill_constraint_edges t ~slack ~src ~dst ~weight =
  let np = n_pairs t in
  if Array.length src < 2 * np || Array.length dst < 2 * np || Array.length weight < 2 * np
  then invalid_arg "Skew_problem.fill_constraint_edges: arrays too short";
  for p = 0 to np - 1 do
    let i = t.src.(p) and j = t.dst.(p) in
    (* (6)  t̂_i − t̂_j ≤ T − D_max − t_setup − M  :  edge j → i *)
    src.(2 * p) <- j;
    dst.(2 * p) <- i;
    weight.(2 * p) <- t.period -. t.d_max.(p) -. t.t_setup -. slack;
    (* (7)  t̂_j − t̂_i ≤ D_min − t_hold − M       :  edge i → j *)
    src.((2 * p) + 1) <- i;
    dst.((2 * p) + 1) <- j;
    weight.((2 * p) + 1) <- t.d_min.(p) -. t.t_hold -. slack
  done

let constraint_graph t ~slack =
  let ne = 2 * n_pairs t in
  let src = Array.make ne 0 and dst = Array.make ne 0 and weight = Array.make ne 0.0 in
  fill_constraint_edges t ~slack ~src ~dst ~weight;
  let g = Rc_graph.Digraph.create t.n in
  for e = 0 to ne - 1 do
    Rc_graph.Digraph.add_edge g src.(e) dst.(e) weight.(e)
  done;
  g

let check t ~slack ~skews =
  Array.length skews = t.n
  &&
  let ok = ref true and p = ref 0 in
  while !ok && !p < n_pairs t do
    let i = t.src.(!p) and j = t.dst.(!p) in
    ok :=
      skews.(i) -. skews.(j) +. slack <= t.period -. t.d_max.(!p) -. t.t_setup +. 1e-6
      && skews.(i) -. skews.(j) >= slack +. t.t_hold -. t.d_min.(!p) -. 1e-6;
    incr p
  done;
  !ok

let slack_upper_bound t =
  let acc = ref infinity in
  for p = 0 to n_pairs t - 1 do
    let d_max = t.d_max.(p) and d_min = t.d_min.(p) in
    acc :=
      if t.src.(p) = t.dst.(p) then
        (* a flip-flop feeding itself constrains M directly: t̂ cancels *)
        Float.min !acc (Float.min (t.period -. d_max -. t.t_setup) (d_min -. t.t_hold))
      else Float.min !acc ((t.period -. d_max -. t.t_setup +. d_min -. t.t_hold) /. 2.0)
  done;
  !acc
