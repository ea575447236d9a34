(** Stage-2 skew scheduling: Fishburn's max-slack formulation (Eq. 5-7).

    Two interchangeable engines are provided. The graph engine binary-
    searches the slack [M] with a Bellman-Ford feasibility oracle on the
    difference-constraint graph — this is the scalable path ([23], [24]
    solve the same problem by graph means). The LP engine states the
    formulation verbatim over the simplex and is used to cross-validate
    the graph engine on small instances. *)

type result = {
  skews : float array;  (** Clock-delay target t̂ per flip-flop, min-normalized to 0. *)
  slack : float;  (** The achieved M. *)
}

val solve_graph : Skew_problem.t -> result option
(** Binary search on M, to a 1e-3 ps bracket. [None] when even
    arbitrarily negative slack admits no schedule (a combinational
    constraint cycle is structurally infeasible — cannot happen for
    [d_min ≤ d_max] inputs with a finite two-cycle bound). *)

val solve_lp : Skew_problem.t -> result option
(** The same optimum via the LP [max M]. Intended for small problems
    (the basis is dense). *)

val zero_skew_slack : Skew_problem.t -> float
(** The slack of the trivial all-zero schedule:
    [min(T − D_max − t_setup, D_min − t_hold)] over pairs — the baseline
    that optimization improves on. *)
