(** Single-source shortest paths.

    [dijkstra] requires non-negative weights (used on reduced costs in
    min-cost flow). [bellman_ford] accepts negative weights and detects
    negative cycles — the feasibility oracle of difference-constraint
    systems that underlies skew scheduling. *)

type result = {
  dist : float array;  (** [infinity] for unreachable vertices. *)
  pred : int array;  (** Predecessor vertex, [-1] at sources/unreached. *)
}

val dijkstra : Digraph.t -> source:int -> result
(** @raise Invalid_argument if any edge has negative weight. *)

val dijkstra_multi : Digraph.t -> sources:int list -> result
(** Shortest distance from the nearest of several sources. *)

val bellman_ford : Digraph.t -> sources:int list -> (result, int list) Either.t
(** [Left result] when no negative cycle is reachable; [Right cycle]
    returns the vertex list of one reachable negative cycle (in order).
    Runs {!spfa} on the {!Digraph.freeze} of the graph. *)

val spfa : Digraph.frozen -> sources:int list -> (result, int list) Either.t
(** {!bellman_ford} on a frozen adjacency: a queue-based Bellman-Ford
    that scans each vertex's edge slots in order, with a predecessor-
    forest cycle check every ~|V| successful relaxations.  Reads the
    weights as they are at the call, so a caller may rewrite
    [weights] between calls. *)

val feasible_potentials : Digraph.t -> float array option
(** Solve the difference-constraint system where each edge [u -> v] of
    weight [w] encodes [p(v) <= p(u) + w]: runs Bellman-Ford from a
    virtual super-source connected to every vertex with weight 0 and
    returns the potentials, or [None] if a negative cycle makes the
    system infeasible. *)

val potentials : Digraph.frozen -> float array option
(** {!feasible_potentials} on a frozen adjacency. *)

val path_to : result -> int -> int list option
(** Reconstruct the source-to-vertex path from predecessor pointers;
    [None] when unreachable. *)
