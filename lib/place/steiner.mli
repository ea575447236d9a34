(** Rectilinear Steiner tree wirelength estimation.

    HPWL (the placer's objective) under-counts multi-pin nets and the
    star model over-counts them; routed wire follows a rectilinear
    Steiner tree. This module estimates RSMT length with the classic
    1-Steiner heuristic: start from the rectilinear MST and repeatedly
    add the Hanan-grid point with the largest MST-length gain. Exact for
    2-3 pins; within the 1.5× MST bound in general. Net degrees in
    placement are small, so the O(k⁴)-per-round cost is immaterial. *)

val mst_length : Rc_geom.Point.t list -> float
(** Rectilinear minimum spanning tree length (Prim). 0 for fewer than
    two points. *)

val length : Rc_geom.Point.t list -> float
(** RSMT-estimate: 1-Steiner improvement over the MST. *)

val tree : Rc_geom.Point.t list -> (Rc_geom.Point.t * Rc_geom.Point.t) list
(** The estimate's edges (including Steiner points), for rendering. *)

val total : Rc_netlist.Netlist.t -> Rc_geom.Point.t array -> float
(** Sum over all nets — the routed-length counterpart of
    {!Wirelength.total}. *)
