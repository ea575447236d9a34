(** Shortest paths with negative weights: a queue-based Bellman-Ford
    that detects negative cycles — the feasibility oracle of
    difference-constraint systems that underlies skew scheduling. *)

type result = {
  dist : float array;  (** [infinity] for unreachable vertices. *)
  pred : int array;  (** Predecessor vertex, [-1] at sources/unreached. *)
}

val spfa : Digraph.frozen -> sources:int list -> (result, int list) Either.t
(** [Left result] when no negative cycle is reachable from [sources];
    [Right cycle] returns the vertex list of one reachable negative
    cycle (in order).  A queue-based Bellman-Ford that scans each
    vertex's edge slots in order, with a predecessor-forest cycle check
    every ~|V| successful relaxations.  Reads the weights as they are
    at the call, so a caller may rewrite [weights] between calls. *)

val feasible_potentials : Digraph.t -> float array option
(** Solve the difference-constraint system where each edge [u -> v] of
    weight [w] encodes [p(v) <= p(u) + w]: runs Bellman-Ford from a
    virtual super-source connected to every vertex with weight 0 and
    returns the potentials, or [None] if a negative cycle makes the
    system infeasible. *)

val potentials : Digraph.frozen -> float array option
(** {!feasible_potentials} on a frozen adjacency. *)
