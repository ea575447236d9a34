(** The shared input of all skew-scheduling formulations: sequentially
    adjacent pairs with their extreme combinational delays, plus the
    clocking constants. Flip-flops are indexed [0 .. n-1] (dense — the
    caller maps cell ids to this range). *)

type pair = {
  i : int;  (** Launching flip-flop index. *)
  j : int;  (** Capturing flip-flop index. [i = j] (a state register
                feeding itself) is allowed — the skew terms cancel and
                the pair becomes a pure bound on the slack. *)
  d_max : float;  (** Slowest path i→j, ps. *)
  d_min : float;  (** Fastest path i→j, ps. *)
}

type t = {
  n : int;  (** Number of flip-flops. *)
  pairs : pair list;
  period : float;  (** Clock period T, ps. *)
  t_setup : float;
  t_hold : float;
}

val make :
  n:int -> pairs:pair list -> period:float -> t_setup:float -> t_hold:float -> t
(** @raise Invalid_argument on out-of-range indices or
    [d_min > d_max]. *)

val constraint_graph : t -> slack:float -> Rc_graph.Digraph.t
(** The difference-constraint graph at a given slack [M]: an edge
    [u → v] of weight [w] encodes [t̂_v ≤ t̂_u + w]. Constraint (6)
    contributes the setup edge [j → i] with weight
    [T − D_max − t_setup − M]; constraint (7) the hold edge [i → j]
    with weight [D_min − t_hold − M]. *)

val constraint_edges : t -> int array * int array * float array
(** The edges of {!constraint_graph} as [(src, dst, base)] arrays in the
    order it adds them: pair [p] (in list order) gives the setup edge
    [2p] and the hold edge [2p + 1].  An edge's weight at slack [M] is
    [base.(e) -. M]; [base] is [T − D_max − t_setup] (setup) or
    [D_min − t_hold] (hold), evaluated left to right, so the weights
    are bit-identical to {!constraint_graph}'s. *)

val check : t -> slack:float -> skews:float array -> bool
(** Verify that a skew assignment satisfies every long- and short-path
    constraint at slack [M] (with 1e-6 tolerance). *)

val slack_upper_bound : t -> float
(** The two-cycle bound: [min over pairs of
    (T − D_max − t_setup + D_min − t_hold) / 2] — no schedule can beat
    it (cycling constraint (6) and (7) of one pair). [infinity] when
    there are no pairs. *)
