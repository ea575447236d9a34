(** The shared input of all skew-scheduling formulations: sequentially
    adjacent pairs with their extreme combinational delays, plus the
    clocking constants. Flip-flops are indexed [0 .. n-1] (dense — the
    caller maps cell ids to this range).

    The pairs are four parallel arrays: pair [p] is the launching
    flip-flop [i = src.(p)], the capturing flip-flop [j = dst.(p)] and
    the path delays [d_max.(p)]/[d_min.(p)].  Every function below walks
    them in index order, so a problem built from [Rc_timing.Sta]'s
    result is walked in the STA's cone order.  [i = j] (a state register
    feeding itself) is allowed — the skew terms cancel and the pair
    becomes a pure bound on the slack — and so is the same [(i, j)] in
    more than one pair. *)

type t = private {
  n : int;  (** Number of flip-flops. *)
  src : int array;  (** Launching flip-flop [i] of each pair. *)
  dst : int array;  (** Capturing flip-flop [j] of each pair. *)
  d_max : float array;  (** Slowest path i→j of each pair, ps. *)
  d_min : float array;  (** Fastest path i→j of each pair, ps. *)
  period : float;  (** Clock period T, ps. *)
  t_setup : float;
  t_hold : float;
}

val make :
  n:int ->
  src:int array ->
  dst:int array ->
  d_max:float array ->
  d_min:float array ->
  period:float ->
  t_setup:float ->
  t_hold:float ->
  t
(** The arrays are kept as given, not copied: do not write them
    afterwards.
    @raise Invalid_argument on arrays of different lengths, out-of-range
    indices or [d_min > d_max]. *)

val n_pairs : t -> int

val fill_constraint_edges :
  t -> slack:float -> src:int array -> dst:int array -> weight:float array -> unit
(** Write the difference-constraint edges at slack [M] into slots
    [0 .. 2·n_pairs − 1] of the given arrays, which may be longer (a
    search appends its own edges after them): pair [p] gives the setup
    edge [2p] and the hold edge [2p + 1].  An edge [u → v] of weight [w]
    encodes [t̂_v ≤ t̂_u + w].  Constraint (6) is the setup edge [j → i]
    with weight [T − D_max − t_setup − M]; constraint (7) the hold edge
    [i → j] with weight [D_min − t_hold − M], each evaluated left to
    right (at [M = 0.] the weights are the slack-free bases, bit for
    bit).
    @raise Invalid_argument if an array is shorter than [2·n_pairs]. *)

val constraint_graph : t -> slack:float -> Rc_graph.Digraph.t
(** The difference-constraint graph at slack [M]: the edges of
    {!fill_constraint_edges}, added in slot order. *)

val check : t -> slack:float -> skews:float array -> bool
(** Verify that a skew assignment satisfies every long- and short-path
    constraint at slack [M] (with 1e-6 tolerance). *)

val slack_upper_bound : t -> float
(** The two-cycle bound: [min over pairs of
    (T − D_max − t_setup + D_min − t_hold) / 2] — no schedule can beat
    it (cycling constraint (6) and (7) of one pair). [infinity] when
    there are no pairs. *)
