(** Weighted directed graphs over integer vertices [0 .. n-1].

    This is the workhorse for static timing (combinational DAGs), skew
    scheduling (difference-constraint graphs), and the min-cost-flow
    residual network. Edges carry a float weight and an arbitrary
    payload index so algorithms can report which edge they used. *)

type edge = { src : int; dst : int; weight : float; tag : int }

type t

val create : int -> t
(** [create n] is an empty graph on [n] vertices.
    @raise Invalid_argument if [n < 0]. *)

val n_vertices : t -> int
val n_edges : t -> int

val add_edge : ?tag:int -> t -> int -> int -> float -> unit
(** [add_edge g u v w] adds a directed edge [u -> v] of weight [w].
    Parallel edges are allowed. [tag] defaults to -1.
    @raise Invalid_argument on out-of-range vertices. *)

val out_edges : t -> int -> edge list
(** Outgoing edges of a vertex, in insertion order. *)

val in_degree : t -> int array
(** In-degree of every vertex (computed fresh on each call). *)

(** {1 Frozen adjacency}

    A compressed, array-backed copy of a graph for the solvers that walk
    it many times (the SPFA of {!Shortest_path}): vertex [v]'s out-edges
    occupy slots [ptr.(v)] to [ptr.(v + 1) - 1], last added first, with
    head [heads.(k)] and weight [weights.(k)].
    The weights may be rewritten in place between solves — how the
    binary searches of skew scheduling re-weight one frozen graph per
    probe instead of rebuilding it. *)

type frozen = { ptr : int array; heads : int array; weights : float array }

val freeze : t -> frozen
(** The frozen copy of a graph. *)

val freeze_edges :
  n:int -> src:int array -> dst:int array -> weight:float array -> frozen * int array
(** [freeze_edges ~n ~src ~dst ~weight] is [freeze] of the [n]-vertex
    graph built by adding edge [e] = [src.(e) -> dst.(e)] of weight
    [weight.(e)] for [e] in increasing order, built without the list
    graph.  The second result maps each edge index to its slot.
    @raise Invalid_argument on out-of-range vertices, a negative [n] or
    edge arrays of different lengths. *)
