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
  let nc = 2 * Skew_problem.n_pairs problem in
  let ne = nc + (2 * n) in
  let src = Array.make ne 0 and dst = Array.make ne 0 and weight = Array.make ne 0.0 in
  Skew_problem.fill_constraint_edges problem ~slack ~src ~dst ~weight;
  for i = 0 to n - 1 do
    src.(nc + (2 * i)) <- n;
    dst.(nc + (2 * i)) <- i;
    src.(nc + (2 * i) + 1) <- i;
    dst.(nc + (2 * i) + 1) <- n
  done;
  let g, slot = Rc_graph.Digraph.freeze_edges ~n:(n + 1) ~src ~dst ~weight in
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
  for q = 0 to Skew_problem.n_pairs problem - 1 do
    let i = problem.Skew_problem.src.(q) and j = problem.Skew_problem.dst.(q) in
    ignore
      (Problem.add_row p
         [ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ]
         Problem.Le
         (problem.Skew_problem.period -. problem.Skew_problem.d_max.(q)
        -. problem.Skew_problem.t_setup -. slack));
    ignore
      (Problem.add_row p
         [ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ]
         Problem.Ge
         (slack +. problem.Skew_problem.t_hold -. problem.Skew_problem.d_min.(q)))
  done;
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

let refine_sweeps = 8

let refine_toward_anchors problem ~slack ~anchors ~skews =
  check_sizes problem anchors;
  let n = problem.Skew_problem.n in
  let t = Array.copy skews in
  (* per-FF inequalities derived from the pair constraints at the given
     slack, t_i <= t_j + ub and t_i >= t_j + lb, as one adjacency: FF
     i's slots ptr.(i) .. ptr.(i + 1) - 1 hold (j, ub, lb).  A pair
     with i <> j adds a slot for t_i and, the symmetric view, one for
     t_j; a pair with i = j bounds nothing.  Each FF's slots are filled
     from its end down, so they run last-added first *)
  let ps = problem.Skew_problem.src and pd = problem.Skew_problem.dst in
  let np = Skew_problem.n_pairs problem in
  let ptr = Array.make (n + 1) 0 in
  for q = 0 to np - 1 do
    let i = ps.(q) and j = pd.(q) in
    if i <> j then begin
      ptr.(i + 1) <- ptr.(i + 1) + 1;
      ptr.(j + 1) <- ptr.(j + 1) + 1
    end
  done;
  for v = 1 to n do
    ptr.(v) <- ptr.(v) + ptr.(v - 1)
  done;
  let ne = ptr.(n) in
  let heads = Array.make ne 0 and upper = Array.make ne 0.0 and lower = Array.make ne 0.0 in
  let cursor = Array.sub ptr 1 n in
  let add v head ub lb =
    let k = cursor.(v) - 1 in
    cursor.(v) <- k;
    heads.(k) <- head;
    upper.(k) <- ub;
    lower.(k) <- lb
  in
  for q = 0 to np - 1 do
    let i = ps.(q) and j = pd.(q) in
    if i <> j then begin
      let setup =
        problem.Skew_problem.period -. problem.Skew_problem.d_max.(q)
        -. problem.Skew_problem.t_setup -. slack
      in
      let hold = slack +. problem.Skew_problem.t_hold -. problem.Skew_problem.d_min.(q) in
      (* (6) t_i - t_j <= setup ; (7) t_i - t_j >= hold *)
      add i j setup hold;
      (* symmetric view for t_j *)
      add j i (-.hold) (-.setup)
    end
  done;
  (* up to [refine_sweeps] sweeps; a sweep that changes no target's bits
     leaves the next one the same input, so stopping there returns what
     the remaining sweeps would (bits, not [=]: 0.0 = -0.0) *)
  let sweep = ref 0 and changed = ref true in
  while !changed && !sweep < refine_sweeps do
    incr sweep;
    changed := false;
    for i = 0 to n - 1 do
      let hi = ref infinity and lo = ref neg_infinity in
      for k = ptr.(i) to ptr.(i + 1) - 1 do
        hi := Float.min !hi (t.(heads.(k)) +. upper.(k));
        lo := Float.max !lo (t.(heads.(k)) +. lower.(k))
      done;
      if !lo <= !hi then begin
        let ideal = anchors.(i).t_c +. anchors.(i).t_ci in
        let v = Float.min !hi (Float.max !lo ideal) in
        if Int64.bits_of_float v <> Int64.bits_of_float t.(i) then begin
          t.(i) <- v;
          changed := true
        end
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
    for q = 0 to Skew_problem.n_pairs problem - 1 do
      let i = problem.Skew_problem.src.(q) and j = problem.Skew_problem.dst.(q) in
      if i <> j then begin
        let setup =
          problem.Skew_problem.period -. problem.Skew_problem.d_max.(q)
          -. problem.Skew_problem.t_setup -. slack
        in
        let hold = problem.Skew_problem.d_min.(q) -. problem.Skew_problem.t_hold -. slack in
        (* (6): t_i − t_j ≤ setup ; (7): t_j − t_i ≤ hold *)
        arc i j big setup;
        arc j i big hold
      end
    done;
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
