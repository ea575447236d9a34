(** Analytic global placement in the style of quadratic placers
    (mPL/FastPlace family): star/clique quadratic wirelength minimized by
    conjugate gradient, interleaved with recursive-bisection spreading,
    plus a greedy site legalizer.

    The incremental mode is the flow's stage 6: pseudo-nets pull
    flip-flops toward their assigned rotary-ring tapping positions while
    stability anchors keep the rest of the placement close to the
    previous iteration — exactly the "stable incremental placement" the
    paper requires. *)

type pseudo_net = {
  cell : int;  (** The flip-flop being pulled. *)
  anchor : Rc_geom.Point.t;  (** Its tapping target on the ring. *)
  weight : float;  (** Spring weight (grows over flow iterations). *)
}

type result = {
  positions : Rc_geom.Point.t array;  (** Indexed by cell id; pads included. *)
  hpwl : float;  (** Total signal HPWL of the result, µm. *)
  solver_iterations : int;  (** Total CG iterations spent. *)
}

val initial :
  ?seed:int ->
  ?spread_rounds:int ->
  ?multilevel_threshold:int ->
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  result
(** Global placement from scratch (flow stage 1). [spread_rounds]
    (default 5) controls how many solve/spread rounds run before
    legalization.

    Circuits with at least [multilevel_threshold] movable cells
    (default 50 000 — far above every Table II circuit, so the paper
    path is untouched) are placed by a multilevel V-cycle instead of
    the flat schedule: first-choice/heavy-edge clustering coarsens the
    star connectivity graph to ~12k vertices, the coarsest level is
    solved cold and spread, and each finer level interpolates the
    cluster positions and runs one (two at the finest) warm-started
    spreading relaxation, ending on the flat schedule's final anchor
    strength.  Deterministic and jobs-invariant like the flat path. *)

type laplacian
(** The net Laplacian of one netlist and die, assembled once: the
    sparsity pattern with every diagonal stored, the final off-diagonal
    values, each row's net diagonal contributions in push order, and
    the right-hand side after pad connections and the weak center
    anchor.  Movable cells are the rows, in cell-id order.  Immutable:
    one value serves every {!incremental} call on its netlist and die. *)

val laplacian : Rc_netlist.Netlist.t -> chip:Rc_geom.Rect.t -> laplacian

val incremental :
  ?stability:float ->
  lap:laplacian ->
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  prev:Rc_geom.Point.t array ->
  pseudo:pseudo_net list ->
  result
(** Re-place starting from [prev] with pseudo-nets added. [stability]
    (default 0.004) is the per-cell spring to its previous location —
    larger values give a more stable (less disturbed) placement.
    [lap] is [laplacian netlist ~chip]; a flow builds it once and
    passes it to each of its stage-6 calls.
    @raise Invalid_argument when [prev] or [lap] does not match the
    netlist's cell count. *)

val relocate :
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  site:float ->
  prev:Rc_geom.Point.t array ->
  pseudo:pseudo_net list ->
  Rc_geom.Point.t array
(** Minimally-disturbing stage 6 for an already-refined placement: each
    pseudo-net's cell steps the fraction [weight / (weight + 1)] of the
    way to its anchor (weights grow over flow iterations, so the step
    approaches the anchor); every other cell stays put; the moved cells
    are re-legalized onto free sites. Pair with a flip-flop-frozen
    {!Detail.refine} pass to heal the signal wirelength around the
    moves. *)

(** {1 Kernels of the flat schedule}

    The pieces {!initial} (below the multilevel threshold) and
    {!incremental} are built from, exposed so that tests can hold them
    bit-identical to reference implementations. *)

type system = {
  matrix : Rc_sparse.Csr.t;  (** The quadratic form, over movable rows. *)
  rhs_x : float array;
  rhs_y : float array;
}

type springs = {
  rows : int array;  (** Movable row of spring [k]. *)
  px : float array;  (** Anchor x of spring [k]. *)
  py : float array;  (** Anchor y of spring [k]. *)
  w : float array;  (** Weight of spring [k] (non-negative). *)
}
(** Anchor springs, as parallel arrays in push order. *)

val system : laplacian -> springs list -> system
(** The system with the spring segments (in push order) folded into the
    diagonal and the right-hand side, bit-identical to assembling the
    nets, the center anchor and then the springs through
    {!Rc_sparse.Csr.of_entries}: a diagonal sums the springs last to
    first, then the center anchor, then the net contributions last to
    first; a right-hand side adds the springs first to last. *)

val spreading_targets :
  Rc_util.Rng.t -> Rc_geom.Rect.t -> int -> float array -> float array -> Rc_geom.Point.t array
(** [spreading_targets rng die m xs ys] assigns each of the [m] cells at
    [(xs.(i), ys.(i))] a target in its leaf of a recursive bisection of
    [die] that splits the cells in half, alternating axes; each target
    is jittered inside its leaf with [rng]. *)
