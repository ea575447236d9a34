(** Conventional clock mesh [11] — the variation-tolerant alternative
    the paper's introduction contrasts rotary clocking against: a grid
    of shorted clock wire spanning the die with a short stub from every
    sink to the nearest mesh wire. Skew across the mesh is tiny, but the
    whole grid toggles every cycle, which is exactly the wirelength and
    power overhead the paper criticizes. *)

type t

val create : chip:Rc_geom.Rect.t -> grid:int -> t
(** A mesh of [grid+1] horizontal and [grid+1] vertical wires across the
    die. @raise Invalid_argument if [grid < 1]. *)

val stub_length : t -> Rc_geom.Point.t -> float
(** Manhattan distance from a point to the nearest mesh wire. *)

type stats = {
  mesh_wl : float;  (** Grid wire, µm. *)
  stub_wl : float;  (** Total sink stubs, µm. *)
  total_cap : float;  (** Grid + stubs + sink pins, fF. *)
  clock_power_mw : float;  (** Eq. 8 at α = 1. *)
  max_stub : float;  (** Longest stub, µm. *)
}

val stats : Rc_tech.Tech.t -> t -> sinks:(Rc_geom.Point.t * float) list -> stats
(** Wirelength, capacitance and dynamic power of clocking the given
    sinks [(position, pin_capacitance)] with this mesh. *)
