type result = { skews : float array; slack : float }

let normalize skews =
  let lo = Array.fold_left Float.min infinity skews in
  if lo = infinity then skews else Array.map (fun s -> s -. lo) skews

let solve_graph ?(tolerance = 1e-3) problem =
  let hi0 = Skew_problem.slack_upper_bound problem in
  if hi0 = infinity then
    (* no pairs: any schedule works, slack unbounded — report zero skews
       with the trivial bound *)
    Some { skews = Array.make problem.Skew_problem.n 0.0; slack = infinity }
  else begin
    (* every probe of the search below tests one slack M on the same
       constraint graph, so it is frozen once and each probe rewrites
       all its weights to base − M in place *)
    let src, dst, base = Skew_problem.constraint_edges problem in
    let g, slot =
      Rc_graph.Digraph.freeze_edges ~n:problem.Skew_problem.n ~src ~dst ~weight:base
    in
    let feasible_skews slack =
      Array.iteri (fun e b -> g.Rc_graph.Digraph.weights.(slot.(e)) <- b -. slack) base;
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
  List.iter
    (fun { Skew_problem.i; j; d_max; d_min } ->
      ignore
        (Problem.add_row p
           [ (t_vars.(i), 1.0); (t_vars.(j), -1.0); (m_var, 1.0) ]
           Problem.Le
           (problem.Skew_problem.period -. d_max -. problem.Skew_problem.t_setup));
      ignore
        (Problem.add_row p
           [ (t_vars.(i), 1.0); (t_vars.(j), -1.0); (m_var, -1.0) ]
           Problem.Ge
           (problem.Skew_problem.t_hold -. d_min)))
    problem.Skew_problem.pairs;
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
  List.fold_left
    (fun acc { Skew_problem.d_max; d_min; _ } ->
      Float.min acc
        (Float.min
           (problem.Skew_problem.period -. d_max -. problem.Skew_problem.t_setup)
           (d_min -. problem.Skew_problem.t_hold)))
    infinity problem.Skew_problem.pairs
