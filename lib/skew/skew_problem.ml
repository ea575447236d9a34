type pair = { i : int; j : int; d_max : float; d_min : float }

type t = {
  n : int;
  pairs : pair list;
  period : float;
  t_setup : float;
  t_hold : float;
}

let make ~n ~pairs ~period ~t_setup ~t_hold =
  if n < 0 then invalid_arg "Skew_problem.make: negative n";
  List.iter
    (fun { i; j; d_max; d_min } ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Skew_problem.make: pair index out of range";
      if d_min > d_max +. 1e-9 then invalid_arg "Skew_problem.make: d_min > d_max")
    pairs;
  { n; pairs; period; t_setup; t_hold }

let constraint_edges t =
  let np = List.length t.pairs in
  let src = Array.make (2 * np) 0 and dst = Array.make (2 * np) 0 in
  let base = Array.make (2 * np) 0.0 in
  List.iteri
    (fun p { i; j; d_max; d_min } ->
      (* (6)  t̂_i − t̂_j ≤ T − D_max − t_setup − M  :  edge j → i *)
      src.(2 * p) <- j;
      dst.(2 * p) <- i;
      base.(2 * p) <- t.period -. d_max -. t.t_setup;
      (* (7)  t̂_j − t̂_i ≤ D_min − t_hold − M       :  edge i → j *)
      src.((2 * p) + 1) <- i;
      dst.((2 * p) + 1) <- j;
      base.((2 * p) + 1) <- d_min -. t.t_hold)
    t.pairs;
  (src, dst, base)

let constraint_graph t ~slack =
  let src, dst, base = constraint_edges t in
  let g = Rc_graph.Digraph.create t.n in
  Array.iteri (fun e b -> Rc_graph.Digraph.add_edge g src.(e) dst.(e) (b -. slack)) base;
  g

let check t ~slack ~skews =
  Array.length skews = t.n
  && List.for_all
       (fun { i; j; d_max; d_min } ->
         skews.(i) -. skews.(j) +. slack <= t.period -. d_max -. t.t_setup +. 1e-6
         && skews.(i) -. skews.(j) >= slack +. t.t_hold -. d_min -. 1e-6)
       t.pairs

let slack_upper_bound t =
  List.fold_left
    (fun acc { i; j; d_max; d_min } ->
      if i = j then
        (* a flip-flop feeding itself constrains M directly: t̂ cancels *)
        Float.min acc
          (Float.min (t.period -. d_max -. t.t_setup) (d_min -. t.t_hold))
      else Float.min acc ((t.period -. d_max -. t.t_setup +. d_min -. t.t_hold) /. 2.0))
    infinity t.pairs
