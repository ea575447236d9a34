(** Two-phase revised primal simplex with bounded variables.

    This is the LP engine behind the paper's LP-relaxation of the
    min-max load-capacitance ILP (Sec. VI) and the LP forms of skew
    scheduling (Sec. VII) — the role Soplex plays in the paper. The
    basis is kept as a dense LU factorization plus an eta file,
    refactorized periodically. *)

type status =
  | Optimal
  | Infeasible  (** Phase 1 could not drive artificials to zero. *)
  | Unbounded
  | Iteration_limit

type solution = {
  status : status;
  x : float array;  (** Structural variable values (valid for [Optimal]). *)
  objective : float;  (** [cᵀx] at the returned point. *)
  duals : float array;  (** One multiplier per row (valid for [Optimal]). *)
  iterations : int;
}

val solve : Problem.t -> solution
(** Solve a minimization problem, to a feasibility/optimality
    tolerance of 1e-7 and within [20000 + 50 * (rows + vars)]
    iterations. *)
