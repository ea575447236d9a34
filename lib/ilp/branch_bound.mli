(** Generic 0-1 / integer branch-and-bound over the [Rc_lp] simplex.

    Plays the role of the paper's "public domain ILP solver" (GLPK in
    Table I): an exact but slow baseline. The search is best-first on the
    LP bound, branching on the most fractional integer variable, and is
    stopped by node or wall-clock budgets — the paper did the same by
    capping GLPK at ten hours and reporting the incumbent. *)

type limits = {
  max_nodes : int;  (** Maximum explored B&B nodes. *)
  max_seconds : float;  (** Wall-clock budget. *)
}

type status =
  | Proven_optimal
  | Feasible  (** Search truncated with an incumbent in hand. *)
  | No_solution  (** Truncated (or exhausted) without any incumbent. *)
  | Ilp_infeasible  (** Root relaxation already infeasible. *)

type outcome = {
  status : status;
  x : float array;  (** Incumbent values (integral on integer vars). *)
  objective : float;  (** Incumbent objective; [infinity] when none. *)
  best_bound : float;  (** Global lower bound on the ILP optimum. *)
  nodes : int;
  elapsed_s : float;
}

val solve : ?limits:limits -> Rc_lp.Problem.t -> integer_vars:int list -> outcome
(** Minimize the problem with the listed variables required integral.
    Integer variables should carry finite bounds (0-1 in this paper). *)
