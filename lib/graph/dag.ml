let topological_order g =
  let n = Digraph.n_vertices g in
  let deg = Digraph.in_degree g in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) deg;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!k) <- u;
    incr k;
    List.iter
      (fun (e : Digraph.edge) ->
        deg.(e.dst) <- deg.(e.dst) - 1;
        if deg.(e.dst) = 0 then Queue.add e.dst queue)
      (Digraph.out_edges g u)
  done;
  if !k = n then Some order else None
