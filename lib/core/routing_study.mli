(** Routability check of a flow result: global-route the signal nets and
    the clock tapping stubs, and report routed wirelength against the
    HPWL and Steiner estimates plus the congestion picture. The paper
    reports wirelength as its cost metric; this closes the loop from
    estimated to routed wire. *)

type result = {
  signal_routed : float;  (** Routed signal wire, µm. *)
  signal_hpwl : float;
  signal_steiner : float;
  clock_routed : float;  (** Routed tapping stubs, µm. *)
  clock_estimate : float;  (** The flow's stub-length total. *)
  overflow : int;  (** Unresolved over-capacity track count. *)
  max_congestion : float;  (** Peak usage/capacity ratio. *)
  report : string;
}

val run : Flow.outcome -> result
(** The clock stubs route on a 32×32 g-cell grid with 48 tracks per
    boundary; the signal nets on {!Rc_route.Router.route_netlist}'s. *)
