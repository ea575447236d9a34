(** Two-phase revised primal simplex with bounded variables.

    This is the LP engine behind the paper's LP-relaxation of the
    min-max load-capacitance ILP (Sec. VI) and the LP forms of skew
    scheduling (Sec. VII) — the role Soplex plays in the paper.

    Pricing is full Dantzig over the columns, held in flat CSC arrays;
    after 80 pivots without objective progress it switches to Bland's
    rule.  The basis is a {!Rc_sparse.Sparse_lu} factorization (peeled
    column singletons plus an LU of the remaining bump, both stored
    sparse) and an eta file of at most 20 product-form updates, each
    stored as its nonzeros; it is refactorized every 20 pivots.  A
    pivot costs the nonzeros its FTRAN and BTRAN touch plus an O(rows +
    columns) pricing and ratio-test pass; a refactorization still costs
    the bump's square.  Work vectors are allocated once per solve. *)

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
