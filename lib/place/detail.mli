(** Detailed placement: local refinement of a legalized placement.

    Two classic moves, applied in alternating passes over all movable
    cells until no pass improves:

    - median move: relocate a cell to a free site near the median of its
      connected pins (the HPWL-optimal point for star-shaped nets);
    - pairwise swap: exchange two nearby cells when the sum of their
      nets' HPWL shrinks.

    Evaluation is incremental — only the nets touching the moved cells
    are re-measured — so a pass is roughly linear in pin count. *)

type stats = {
  initial_hpwl : float;
  final_hpwl : float;
  moves : int;  (** Accepted median moves. *)
  swaps : int;  (** Accepted swaps. *)
  passes : int;
}

val refine :
  ?max_passes:int ->
  ?frozen:(int -> bool) ->
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  site:float ->
  Rc_geom.Point.t array ->
  Rc_geom.Point.t array * stats
(** Refine a placement whose movable cells sit on distinct sites of the
    [site] grid (a legalized {!Qplace} placement); returns the improved
    placement (input not modified) and statistics. [max_passes] defaults
    to 4; swaps reach 4 sites, and the move order comes from a fixed
    seed. [frozen] cells are never moved
    or swapped (the flow freezes flip-flops during incremental passes so
    refinement cannot undo the pseudo-net pull). Legality (distinct
    sites inside the die) is preserved. *)
