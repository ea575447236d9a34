(** Min-cost max-flow by successive shortest paths with Johnson
    potentials — the solver behind the paper's Section V flip-flop
    assignment (Fig. 4). Capacities are integers, costs are floats
    (tapping wirelengths). *)

type t

type arc = int
(** Handle returned by {!add_arc}, usable to query flow afterwards. *)

val create : int -> t
(** [create n] builds an empty network on vertices [0 .. n-1]. *)

val add_arc : t -> src:int -> dst:int -> capacity:int -> cost:float -> arc
(** Add a directed arc. @raise Invalid_argument on negative capacity or
    out-of-range vertices. *)

type outcome = {
  flow : int;  (** Total flow shipped (may be less than requested). *)
  cost : float;  (** Sum of [cost * flow] over arcs. *)
}

val solve : ?amount:int -> t -> source:int -> sink:int -> outcome
(** Ship up to [amount] units (default: max flow) from source to sink at
    minimum cost. Negative-cost arcs are handled by a Bellman-Ford
    initialization of the potentials. Runs the bucket-Dijkstra core:
    successive shortest paths over a radix heap on reduced costs, with
    early sink termination and touched-set resets, so per-augmentation
    work scales with the explored region rather than the network. *)

val solve_warm :
  ?amount:int -> t -> potentials:float array -> source:int -> sink:int -> outcome
(** Like {!solve}, but start from caller-supplied dual [potentials]
    instead of computing them fresh. [potentials] must be feasible for
    the current residual (every residual arc's reduced cost
    non-negative); it is mutated in place and holds the final duals on
    return. A solve on an all-zero dual of a fresh non-negative-cost
    network behaves exactly like {!solve}. *)

val solve_unit_supply :
  ?amount:int -> t -> potentials:float array -> source:int -> sink:int -> outcome
(** {!solve_warm} for unit-supply bipartite networks, by a core that
    skips the items a search would settle without relaxing anything.
    The network must be a fresh assignment network: [source] feeds each
    item through one arc of capacity 1 and cost 0, items feed bins
    through arcs of capacity 1, bins feed only [sink], and no flow is
    routed yet; every item's potential must equal the source's bit for
    bit.  Otherwise, or if the items' shared potential would split
    mid-solve, the generic core runs (or takes over).  Either way the
    augmenting paths, the flows, the cost and the final [potentials]
    are bit-identical to {!solve_warm}, and so is every
    [netflow.mcmf.*] counter but one: the items settled without a scan
    (still counted in [dijkstra_scans]) are also counted in
    [netflow.mcmf.sweep_skips]. *)

val flow_on : t -> arc -> int
(** Flow routed on an arc by the last {!solve} call. *)

val iter_residual : t -> (src:int -> dst:int -> cost:float -> unit) -> unit
(** Iterate every arc of the residual network (positive remaining
    capacity), including reverse arcs of routed flow. After an optimal
    solve the residual network has no negative cycle, so Bellman-Ford
    potentials over it recover the dual variables — how the weighted-sum
    skew scheduler extracts its schedule. *)

val n_vertices : t -> int
