(** Minimal SVG emission — enough to draw placements, ring arrays and
    tapping stubs. Coordinates are in the chip's micrometer frame; the
    document flips the y axis so the origin sits bottom-left like a
    layout viewer. *)

type t

val create : ?margin:float -> width:float -> height:float -> unit -> t
(** A drawing surface covering [0,width] × [0,height] µm. *)

val line :
  t -> ?stroke:string -> ?width:float -> ?dash:string -> Rc_geom.Point.t -> Rc_geom.Point.t -> unit

val rect :
  t -> ?stroke:string -> ?fill:string -> ?width:float -> Rc_geom.Rect.t -> unit

val circle : t -> ?fill:string -> ?r:float -> Rc_geom.Point.t -> unit

val square_marker : t -> ?fill:string -> ?half:float -> Rc_geom.Point.t -> unit
(** A small filled square centered at the point (flip-flop marker). *)

val text : t -> ?size:float -> ?fill:string -> Rc_geom.Point.t -> string -> unit

val to_string : t -> string
(** The complete SVG document. *)
