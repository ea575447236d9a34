(** Congestion-negotiating global router.

    Multi-pin nets are decomposed into two-pin connections along their
    Steiner-tree edges; each connection is routed by an A*-style maze
    search over the g-cell grid whose edge cost grows with present usage
    and with a history term on previously overflowed edges (the
    PathFinder negotiation scheme). A few rip-up-and-reroute rounds
    drive the overflow down. *)

type routed = {
  grid : Grid.t;  (** Final usage state. *)
  wirelength : float;  (** Total routed length, µm (g-cell step metric). *)
  overflow : int;  (** Remaining over-capacity track count. *)
  rounds : int;  (** Negotiation rounds executed. *)
}

val route_connections : Grid.t -> (Rc_geom.Point.t * Rc_geom.Point.t) list -> routed
(** Route the given two-pin connections on the grid (mutates its usage),
    in at most 5 negotiation rounds. *)

val route_netlist : chip:Rc_geom.Rect.t -> Rc_netlist.Netlist.t -> Rc_geom.Point.t array -> routed
(** Decompose every net of a placed netlist into Steiner edges and route
    them with {!route_connections} on a 32×32 g-cell grid with 24 tracks
    per boundary. *)
