type edge = { src : int; dst : int; weight : float; tag : int }

type t = { n : int; adj : edge list array; mutable m : int }

type frozen = { ptr : int array; heads : int array; weights : float array }

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; adj = Array.make (max n 1) []; m = 0 }

let n_vertices g = g.n
let n_edges g = g.m

let check g v name =
  if v < 0 || v >= g.n then invalid_arg ("Digraph." ^ name ^ ": vertex out of range")

let add_edge ?(tag = -1) g u v w =
  check g u "add_edge";
  check g v "add_edge";
  g.adj.(u) <- { src = u; dst = v; weight = w; tag } :: g.adj.(u);
  g.m <- g.m + 1

let out_edges g v =
  check g v "out_edges";
  List.rev g.adj.(v)

let iter_edges g f =
  for v = 0 to g.n - 1 do
    List.iter f (List.rev g.adj.(v))
  done

let in_degree g =
  let deg = Array.make g.n 0 in
  iter_edges g (fun e -> deg.(e.dst) <- deg.(e.dst) + 1);
  deg

let freeze_edges ~n ~src ~dst ~weight =
  let ne = Array.length src in
  if n < 0 then invalid_arg "Digraph.freeze_edges: negative size";
  if Array.length dst <> ne || Array.length weight <> ne then
    invalid_arg "Digraph.freeze_edges: edge arrays differ in length";
  let ptr = Array.make (n + 1) 0 in
  for e = 0 to ne - 1 do
    let u = src.(e) and v = dst.(e) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Digraph.freeze_edges: vertex out of range";
    ptr.(u + 1) <- ptr.(u + 1) + 1
  done;
  for v = 1 to n do
    ptr.(v) <- ptr.(v) + ptr.(v - 1)
  done;
  let cursor = Array.sub ptr 0 n in
  let heads = Array.make ne 0 and weights = Array.make ne 0.0 and slot = Array.make ne 0 in
  (* edges last to first, so each vertex's slots run last-added first *)
  for e = ne - 1 downto 0 do
    let k = cursor.(src.(e)) in
    cursor.(src.(e)) <- k + 1;
    slot.(e) <- k;
    heads.(k) <- dst.(e);
    weights.(k) <- weight.(e)
  done;
  ({ ptr; heads; weights }, slot)

(* iter_edges runs each vertex's edges in insertion order, so freezing
   them as edges 0, 1, ... puts each vertex's last-added edge first *)
let freeze g =
  let src = Array.make g.m 0 and dst = Array.make g.m 0 and weight = Array.make g.m 0.0 in
  let e = ref 0 in
  iter_edges g (fun ed ->
      src.(!e) <- ed.src;
      dst.(!e) <- ed.dst;
      weight.(!e) <- ed.weight;
      incr e);
  fst (freeze_edges ~n:g.n ~src ~dst ~weight)
