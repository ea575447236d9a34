type anchor = { t_c : float; t_ci : float; weight : float }

type result = { skews : float array; objective : float }

let check_sizes problem anchors =
  if Array.length anchors <> problem.Skew_problem.n then
    invalid_arg "Cost_driven: anchors size mismatch"

let m_probes = Rc_obs.Metrics.counter "skew.minmax.probes"
let m_solves = Rc_obs.Metrics.counter "skew.minmax.solves"

let solve_minmax_graph ?(tolerance = 1e-3) problem ~slack ~anchors =
  check_sizes problem anchors;
  let n = problem.Skew_problem.n in
  (* Difference-constraint graph extended with a reference vertex [n]
     (clock value 0) encoding the window constraints at a given Δ:
       t̂_i ≤ t_c + Δ            — edge  ref → i  weight t_c + Δ
       t̂_i ≥ t_c + 2·t_ci − Δ   — edge  i → ref  weight Δ − t_c − 2·t_ci
     Only those 2n window edges depend on Δ, so the graph is frozen once
     — the constraint edges at [slack], then per flip-flop i its upper
     edge (2i) and lower edge (2i + 1) — and every probe of the binary
     search rewrites just the window weights in place.  Each vertex's
     slots keep the edge order a per-probe rebuild would have, so the
     SPFA's search trajectory is unchanged. *)
  let src, dst, base = Skew_problem.constraint_edges problem in
  let nc = Array.length src in
  let g, slot =
    Rc_graph.Digraph.freeze_edges ~n:(n + 1)
      ~src:(Array.append src (Array.init (2 * n) (fun e -> if e land 1 = 0 then n else e / 2)))
      ~dst:(Array.append dst (Array.init (2 * n) (fun e -> if e land 1 = 0 then e / 2 else n)))
      ~weight:(Array.append (Array.map (fun b -> b -. slack) base) (Array.make (2 * n) 0.0))
  in
  let weights = g.Rc_graph.Digraph.weights in
  let probe delta =
    Rc_obs.Metrics.incr m_probes;
    Array.iteri
      (fun i a ->
        weights.(slot.(nc + (2 * i))) <- a.t_c +. delta;
        weights.(slot.(nc + (2 * i) + 1)) <- delta -. a.t_c -. (2.0 *. a.t_ci))
      anchors;
    match Rc_graph.Shortest_path.spfa g ~sources:[ n ] with
    | Either.Right _ -> None
    | Either.Left r ->
        let skews =
          Array.init n (fun i ->
              if r.Rc_graph.Shortest_path.dist.(i) < infinity then
                r.Rc_graph.Shortest_path.dist.(i)
              else anchors.(i).t_c +. anchors.(i).t_ci)
        in
        Some skews
  in
  Rc_obs.Metrics.incr m_solves;
  (* a Δ large enough to be surely feasible when the timing constraints
     alone are: wide enough to cover every window plus the full period *)
  let span =
    Array.fold_left
      (fun acc a -> Float.max acc (Float.abs a.t_c +. (2.0 *. a.t_ci)))
      0.0 anchors
  in
  let hi0 = (2.0 *. span) +. (4.0 *. problem.Skew_problem.period) +. 1.0 in
  match probe hi0 with
  | None -> None
  | Some skews0 ->
      let lo = ref 0.0 and hi = ref hi0 and best = ref skews0 and best_d = ref hi0 in
      (match probe 0.0 with
      | Some s ->
          best := s;
          best_d := 0.0;
          hi := 0.0
      | None -> ());
      while !hi -. !lo > tolerance do
        let mid = 0.5 *. (!lo +. !hi) in
        match probe mid with
        | Some s ->
            best := s;
            best_d := mid;
            hi := mid
        | None -> lo := mid
      done;
      Some { skews = !best; objective = !best_d }

let solve_weighted_lp problem ~slack ~anchors =
  check_sizes problem anchors;
  let open Rc_lp in
  let p = Problem.create () in
  let n = problem.Skew_problem.n in
  let t_vars = Array.init n (fun _ -> Problem.add_var p) in
  let d_vars = Array.map (fun a -> Problem.add_var ~lo:0.0 ~obj:(Float.max a.weight 0.0) p) anchors in
  List.iter
    (fun { Skew_problem.i; j; d_max; d_min } ->
      ignore
        (Problem.add_row p
           [ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ]
           Problem.Le
           (problem.Skew_problem.period -. d_max -. problem.Skew_problem.t_setup -. slack));
      ignore
        (Problem.add_row p
           [ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ]
           Problem.Ge
           (slack +. problem.Skew_problem.t_hold -. d_min)))
    problem.Skew_problem.pairs;
  Array.iteri
    (fun i a ->
      let ideal = a.t_c +. a.t_ci in
      ignore
        (Problem.add_row p [ (t_vars.(i), 1.0); (d_vars.(i), -1.0) ] Problem.Le ideal);
      ignore
        (Problem.add_row p [ (t_vars.(i), -1.0); (d_vars.(i), -1.0) ] Problem.Le (-.ideal)))
    anchors;
  match Simplex.solve p with
  | { Simplex.status = Simplex.Optimal; x; objective; _ } ->
      Some { skews = Array.map (fun v -> x.(v)) t_vars; objective }
  | _ -> None

let refine_toward_anchors ?(sweeps = 8) problem ~slack ~anchors ~skews =
  check_sizes problem anchors;
  let n = problem.Skew_problem.n in
  let t = Array.copy skews in
  (* per-FF inequalities derived from the pair constraints at the given
     slack, t_i <= t_j + ub and t_i >= t_j + lb, as one frozen adjacency
     (an edge i → j per inequality pair) with two weight arrays.  Pair p
     adds edge 2p for t_i and edge 2p + 1, the symmetric view, for t_j;
     each FF's slots run last-added first, the order the bounds are
     folded in *)
  let pairs =
    Array.of_list (List.filter (fun { Skew_problem.i; j; _ } -> i <> j) problem.Skew_problem.pairs)
  in
  let ne = 2 * Array.length pairs in
  let src = Array.make ne 0 and dst = Array.make ne 0 in
  let ub = Array.make ne 0.0 and lb = Array.make ne 0.0 in
  Array.iteri
    (fun p { Skew_problem.i; j; d_max; d_min } ->
      let setup = problem.Skew_problem.period -. d_max -. problem.Skew_problem.t_setup -. slack in
      let hold = slack +. problem.Skew_problem.t_hold -. d_min in
      (* (6) t_i - t_j <= setup ; (7) t_i - t_j >= hold *)
      src.(2 * p) <- i;
      dst.(2 * p) <- j;
      ub.(2 * p) <- setup;
      lb.(2 * p) <- hold;
      (* symmetric view for t_j *)
      src.((2 * p) + 1) <- j;
      dst.((2 * p) + 1) <- i;
      ub.((2 * p) + 1) <- -.hold;
      lb.((2 * p) + 1) <- -.setup)
    pairs;
  let g, slot = Rc_graph.Digraph.freeze_edges ~n ~src ~dst ~weight:ub in
  let ptr = g.Rc_graph.Digraph.ptr and heads = g.Rc_graph.Digraph.heads in
  let upper = g.Rc_graph.Digraph.weights and lower = Array.make ne 0.0 in
  Array.iteri (fun e k -> lower.(k) <- lb.(e)) slot;
  for _ = 1 to sweeps do
    for i = 0 to n - 1 do
      let hi = ref infinity and lo = ref neg_infinity in
      for k = ptr.(i) to ptr.(i + 1) - 1 do
        hi := Float.min !hi (t.(heads.(k)) +. upper.(k));
        lo := Float.max !lo (t.(heads.(k)) +. lower.(k))
      done;
      if !lo <= !hi then begin
        let ideal = anchors.(i).t_c +. anchors.(i).t_ci in
        t.(i) <- Float.min !hi (Float.max !lo ideal)
      end
    done
  done;
  t

(* Weighted-sum scheduling through the min-cost-flow dual.

   Primal:  min Σ w_i·|t_i − c_i|  s.t.  t_u − t_v ≤ b_e  (one arc per
   constraint). Its LP dual is a min-cost circulation over the variable
   nodes plus a reference node r: constraint arc u→v carries cost b_e
   (capacity effectively unbounded), and each node i exchanges up to w_i
   units with r at cost −c_i (r→i) / +c_i (i→r). Negative-cost arcs are
   pre-saturated (pushing their capacity and recording the imbalance),
   and the resulting excess/deficit transportation problem is solved by
   successive shortest paths. Any potentials with non-negative reduced
   costs over the optimal residual network certify optimality, and
   t_i = π_r − π_i is an optimal primal schedule. *)
let solve_weighted_mcf problem ~slack ~anchors =
  check_sizes problem anchors;
  let n = problem.Skew_problem.n in
  (* infeasible timing constraints: bail out like the LP engine *)
  let timing_graph = Skew_problem.constraint_graph problem ~slack in
  if Rc_graph.Shortest_path.feasible_potentials timing_graph = None then None
  else begin
    let r = n and source = n + 1 and sink = n + 2 in
    let net = Rc_netflow.Mcmf.create (n + 3) in
    let excess = Array.make (n + 1) 0 in
    let quantize w = if w <= 0.0 then 0 else max 1 (int_of_float (Float.round w)) in
    let big =
      Array.fold_left (fun acc a -> acc + quantize a.weight) 0 anchors |> max 1
    in
    (* add an arc, pre-saturating it when its cost is negative *)
    let arc u v cap cost =
      if cap > 0 then begin
        if cost >= 0.0 then ignore (Rc_netflow.Mcmf.add_arc net ~src:u ~dst:v ~capacity:cap ~cost)
        else begin
          ignore (Rc_netflow.Mcmf.add_arc net ~src:v ~dst:u ~capacity:cap ~cost:(-.cost));
          excess.(v) <- excess.(v) + cap;
          excess.(u) <- excess.(u) - cap
        end
      end
    in
    (* constraint arcs: t_u − t_v ≤ b  →  arc u→v with cost b *)
    List.iter
      (fun { Skew_problem.i; j; d_max; d_min } ->
        if i <> j then begin
          let setup =
            problem.Skew_problem.period -. d_max -. problem.Skew_problem.t_setup -. slack
          in
          let hold = d_min -. problem.Skew_problem.t_hold -. slack in
          (* (6): t_i − t_j ≤ setup ; (7): t_j − t_i ≤ hold *)
          arc i j big setup;
          arc j i big hold
        end)
      problem.Skew_problem.pairs;
    (* node arcs to the reference *)
    Array.iteri
      (fun i a ->
        let w = quantize a.weight in
        let ideal = a.t_c +. a.t_ci in
        arc r i w (-.ideal);
        arc i r w ideal)
      anchors;
    (* transportation between the pre-saturation imbalances *)
    let supply = ref 0 in
    Array.iteri
      (fun v e ->
        if e > 0 then begin
          ignore (Rc_netflow.Mcmf.add_arc net ~src:source ~dst:v ~capacity:e ~cost:0.0);
          supply := !supply + e
        end
        else if e < 0 then
          ignore (Rc_netflow.Mcmf.add_arc net ~src:v ~dst:sink ~capacity:(-e) ~cost:0.0))
      excess;
    let outcome = Rc_netflow.Mcmf.solve ~amount:!supply net ~source ~sink in
    if outcome.Rc_netflow.Mcmf.flow < !supply then None
    else begin
      (* potentials over the optimal residual network: multi-source
         Bellman-Ford (no negative cycles remain at optimality) *)
      let g = Rc_graph.Digraph.create (n + 3) in
      Rc_netflow.Mcmf.iter_residual net (fun ~src ~dst ~cost ->
          Rc_graph.Digraph.add_edge g src dst cost);
      match Rc_graph.Shortest_path.feasible_potentials g with
      | None -> None
      | Some d ->
          let skews = Array.init n (fun i -> d.(r) -. d.(i)) in
          let objective =
            Array.to_list
              (Array.mapi
                 (fun i a ->
                   Float.max a.weight 0.0 *. Float.abs (skews.(i) -. (a.t_c +. a.t_ci)))
                 anchors)
            |> List.fold_left ( +. ) 0.0
          in
          Some { skews; objective }
    end
  end
