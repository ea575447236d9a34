(** Stage-4 cost-driven skew scheduling (Section VII).

    After flip-flops are assigned to rings, delay targets are re-chosen
    so that each flip-flop's tapping point can sit at the ring point [c]
    nearest to it, shrinking the tapping stub. Per flip-flop [i] the
    inputs are the clock delay [t_c] at its nearest ring point and the
    stub delay [t_ci] of the shortest stub; the achievable ideal is
    [t_i = t_c + t_ci].

    Two formulations from the paper:

    - min-max: minimize Δ subject to the timing constraints at a
      prespecified slack M and, per flip-flop,
      [t_c + 2·t_ci − t̂_i ≤ Δ] and [t̂_i − t_c ≤ Δ]
      (equivalent to [|t_i − t̂_i| + t_ci ≤ Δ]). Solved by binary search
      on Δ over the Bellman-Ford oracle (scalable) or by LP.

    - weighted-sum: minimize [Σ w_i·δ_i] with [δ_i ≥ |t̂_i − t_i|],
      natural weights [w_i = l_i] (stub length). Solved by LP. *)

type anchor = {
  t_c : float;  (** Clock delay at the nearest ring point, ps. *)
  t_ci : float;  (** Stub delay from that point to the flip-flop, ps. *)
  weight : float;  (** w_i for the weighted formulation (e.g. l_i). *)
}

type result = {
  skews : float array;  (** New delay targets t̂. *)
  objective : float;  (** Δ for min-max; Σ w·δ for weighted-sum. *)
}

val solve_minmax_graph :
  ?tolerance:float -> Skew_problem.t -> slack:float -> anchors:anchor array -> result option
(** Binary search on Δ. [None] if the timing constraints alone are
    infeasible at the given slack. @raise Invalid_argument if the anchor
    array size differs from the problem size. *)

val solve_weighted_lp :
  Skew_problem.t -> slack:float -> anchors:anchor array -> result option
(** The weighted-sum formulation by LP. Each flip-flop's ideal is
    [t_c + t_ci]; deviations are charged [weight·|t̂_i − ideal_i|]. *)

val solve_weighted_mcf :
  Skew_problem.t -> slack:float -> anchors:anchor array -> result option
(** The weighted-sum formulation solved exactly through its network
    dual: minimizing [Σ w_i·|t̂_i − ideal_i|] over difference constraints
    is the LP dual of a min-cost circulation in which every constraint
    becomes an uncapacitated arc (cost = its bound) and every flip-flop
    a pair of arcs to a reference node (capacity [w_i], cost [∓ideal_i]).
    Negative arcs are canceled by pre-saturation and the residual
    transportation problem is solved by successive shortest paths; the
    schedule is read back from Bellman-Ford potentials of the optimal
    residual network. Scales to the full benchmarks where the LP engine
    cannot (weights are quantized to integer capacities — 1 µm
    resolution). [None] when the timing constraints are infeasible at
    the given slack. *)

val refine_toward_anchors :
  Skew_problem.t ->
  slack:float ->
  anchors:anchor array ->
  skews:float array ->
  float array
(** Large-scale polish for the min-max solution: coordinate descent on
    [Σ w_i·|t̂_i − ideal_i|] over the difference-constraint polytope.
    Starting from a feasible schedule, each sweep moves every target to
    the point of its current feasible interval closest to its ideal
    [t_c + t_ci] — monotone, feasibility-preserving, and linear-time per
    sweep. Returns the refined schedule (the input array is not
    modified). Runs at most 8 sweeps and stops after a sweep that
    changes no target, which returns the same bits as the full 8. *)
