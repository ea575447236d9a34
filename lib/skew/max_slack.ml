type result = { skews : float array; slack : float }

let normalize skews =
  let lo = Array.fold_left Float.min infinity skews in
  if lo = infinity then skews else Array.map (fun s -> s -. lo) skews

(* the binary search on M stops once its bracket is this narrow, ps *)
let tolerance = 1e-3

let solve_graph problem =
  let hi0 = Skew_problem.slack_upper_bound problem in
  if hi0 = infinity then
    (* no pairs: any schedule works, slack unbounded — report zero skews
       with the trivial bound *)
    Some { skews = Array.make problem.Skew_problem.n 0.0; slack = infinity }
  else begin
    (* every probe of the search below tests one slack M on the same
       constraint graph, so it is frozen once and each probe rewrites
       all its weights to base − M in place *)
    let ne = 2 * Skew_problem.n_pairs problem in
    let src = Array.make ne 0 and dst = Array.make ne 0 and weight = Array.make ne 0.0 in
    Skew_problem.fill_constraint_edges problem ~slack:0.0 ~src ~dst ~weight;
    let g, _ = Rc_graph.Digraph.freeze_edges ~n:problem.Skew_problem.n ~src ~dst ~weight in
    (* the slack-free weights in slot order *)
    let base = Array.copy g.Rc_graph.Digraph.weights in
    let feasible_skews slack =
      let weights = g.Rc_graph.Digraph.weights in
      for k = 0 to ne - 1 do
        weights.(k) <- base.(k) -. slack
      done;
      Rc_graph.Shortest_path.potentials g
    in
    match feasible_skews hi0 with
    | Some p -> Some { skews = normalize p; slack = hi0 }
    | None ->
        (* find a feasible lower bracket by doubling downward *)
        let rec find_lo lo attempts =
          if attempts = 0 then None
          else
            match feasible_skews lo with
            | Some p -> Some (lo, p)
            | None -> find_lo (lo -. (2.0 *. (hi0 -. lo) +. 1.0)) (attempts - 1)
        in
        (match find_lo (Float.min 0.0 hi0) 64 with
        | None -> None
        | Some (lo0, p0) ->
            let lo = ref lo0 and hi = ref hi0 and best = ref p0 in
            while !hi -. !lo > tolerance do
              let mid = 0.5 *. (!lo +. !hi) in
              match feasible_skews mid with
              | Some p ->
                  best := p;
                  lo := mid
              | None -> hi := mid
            done;
            Some { skews = normalize !best; slack = !lo })
  end

let solve_lp problem =
  let open Rc_lp in
  let p = Problem.create () in
  let n = problem.Skew_problem.n in
  let t_vars = Array.init n (fun _ -> Problem.add_var p) in
  let m_var = Problem.add_var ~obj:(-1.0) p in
  for q = 0 to Skew_problem.n_pairs problem - 1 do
    let i = problem.Skew_problem.src.(q) and j = problem.Skew_problem.dst.(q) in
    ignore
      (Problem.add_row p
         [ (t_vars.(i), 1.0); (t_vars.(j), -1.0); (m_var, 1.0) ]
         Problem.Le
         (problem.Skew_problem.period -. problem.Skew_problem.d_max.(q)
        -. problem.Skew_problem.t_setup));
    ignore
      (Problem.add_row p
         [ (t_vars.(i), 1.0); (t_vars.(j), -1.0); (m_var, -1.0) ]
         Problem.Ge
         (problem.Skew_problem.t_hold -. problem.Skew_problem.d_min.(q)))
  done;
  (* anchor one flip-flop to pin down the free translation *)
  if n > 0 then ignore (Problem.add_row p [ (t_vars.(0), 1.0) ] Problem.Eq 0.0);
  (* slack is bounded by the two-cycle bound, keep the LP bounded *)
  let ub = Skew_problem.slack_upper_bound problem in
  if Float.is_finite ub then Problem.set_bounds p m_var ~lo:neg_infinity ~hi:ub;
  match Simplex.solve p with
  | { Simplex.status = Simplex.Optimal; x; _ } ->
      let skews = normalize (Array.map (fun v -> x.(v)) t_vars) in
      Some { skews; slack = x.(m_var) }
  | { Simplex.status = Simplex.Unbounded; _ } ->
      Some { skews = Array.make n 0.0; slack = infinity }
  | _ -> None

let zero_skew_slack problem =
  let acc = ref infinity in
  for p = 0 to Skew_problem.n_pairs problem - 1 do
    acc :=
      Float.min !acc
        (Float.min
           (problem.Skew_problem.period -. problem.Skew_problem.d_max.(p)
          -. problem.Skew_problem.t_setup)
           (problem.Skew_problem.d_min.(p) -. problem.Skew_problem.t_hold))
  done;
  !acc
