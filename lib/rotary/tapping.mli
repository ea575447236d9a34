(** Flexible tapping (Section III): find, for a flip-flop at an arbitrary
    location with a clock-delay target [t̂_f], the tapping point [p] on a
    rotary ring such that

      t_f(x) = t0 + ρ·x + ½rc·l² + r·l·C_ff = t̂_f        (Eq. 1)

    with [l] the Manhattan stub length from [p] to the flip-flop. The
    curve [t_f(x)] is two parabolas joined at the flip-flop's projection
    (Fig. 2) and the four solution cases of the paper are all handled:

    - Case 1 (target below the curve): reduce the target by whole clock
      periods — phase is unchanged — until a solution appears;
    - Case 2 (two roots): the smaller-stub root is selected;
    - Case 3 (tangent): the unique root;
    - Case 4 (target above the curve): tap at the segment end and snake
      the stub wire until the delay matches (wire detour [6]).

    Both conductors of the differential pair are tried — attaching to
    the complementary phase means flipping the flip-flop's polarity,
    which the paper permits. The cheapest of the 4 segments × 2
    conductors is returned; its stub length is the tapping cost. *)

type tap = {
  ring : int;  (** Ring id. *)
  point : Rc_geom.Point.t;  (** Tapping point on the ring edge. *)
  arc : float;  (** Arc position of [point] on the ring. *)
  conductor : Ring.conductor;
  wirelength : float;  (** Stub length (µm) — the tapping cost. *)
  snaked : bool;  (** True when Case 4 wire detouring was needed. *)
  periods_shifted : int;  (** Whole periods added to the target (Case 1). *)
}

(** Which of the four Eq. 1 solution cases produced a tap. *)
type case =
  | Two_root  (** Case 2: two roots, smaller stub chosen. *)
  | Period_shift  (** Case 1: whole periods were added to the target. *)
  | Tangent  (** Case 3: root at the flip-flop's projection (near-tangent). *)
  | Snaked  (** Case 4: wire detouring. *)

val case_of : tap -> ff:Rc_geom.Point.t -> case
(** Classify a tap for the flip-flop it was solved for. Precedence:
    snaking is always [Snaked]; any period shift is [Period_shift] even
    when the shifted solution is tangent; a non-shifted root at the
    flip-flop's projection (within 1e-6 µm) is [Tangent]; everything
    else is [Two_root]. Used for the tapping-case distribution metrics
    ([assign.tap.*]). *)

val solve :
  ?use_complement:bool ->
  ?load:float ->
  Rc_tech.Tech.t ->
  Ring.t ->
  ff:Rc_geom.Point.t ->
  target:float ->
  tap
(** Best tap on one ring for the given delay target (ps). Always
    succeeds: Case 4 snaking makes any target reachable.
    [use_complement] (default true) also offers the inner conductor —
    turning it off models designs that disallow polarity flipping (an
    ablation of the paper's complementary-phase trick). [load] overrides
    the stub's far-end capacitance (default [c_ff]) — local tapping
    trees hang a whole subtree off the stub. *)

val solve_on_segment :
  Rc_tech.Tech.t ->
  Ring.t ->
  segment:int ->
  conductor:Ring.conductor ->
  ff:Rc_geom.Point.t ->
  target:float ->
  tap
(** Best tap restricted to one of the four segments (index 0-3) and one
    conductor — the single-segment setting in which the paper's Fig. 2
    case analysis is stated. {!solve} is the minimum of the eight
    restricted solutions. @raise Invalid_argument on a bad segment
    index. *)

val stub_delay : Rc_tech.Tech.t -> float -> float
(** Delay (ps) of a stub of length l driving one flip-flop:
    [½rc·l² + r·l·C_ff]. *)

val stub_delay_with_load : Rc_tech.Tech.t -> load:float -> float -> float
(** {!stub_delay} with an explicit far-end load (fF). *)

val curve : Rc_tech.Tech.t -> Ring.t -> segment:int -> ff:Rc_geom.Point.t ->
            samples:int -> (float * float) list
(** Sample [t_f(x)] along one segment (by index 0-3) for plotting the
    Fig. 2 curve: returns [(x, t_f(x))] pairs on the outer conductor,
    not reduced modulo the period. *)
