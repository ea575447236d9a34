(** Minimal SVG emission — enough to draw placements, ring arrays and
    tapping stubs. Coordinates are in the chip's micrometer frame; the
    document flips the y axis so the origin sits bottom-left like a
    layout viewer. *)

type t

val create : width:float -> height:float -> t
(** A drawing surface covering [0,width] × [0,height] µm, inside a
    20 µm margin. *)

val line : t -> ?stroke:string -> ?width:float -> Rc_geom.Point.t -> Rc_geom.Point.t -> unit

val rect : t -> ?stroke:string -> ?width:float -> Rc_geom.Rect.t -> unit
(** An unfilled rectangle outline. *)

val circle : t -> ?fill:string -> ?r:float -> Rc_geom.Point.t -> unit

val square_marker : t -> ?fill:string -> ?half:float -> Rc_geom.Point.t -> unit
(** A small filled square centered at the point (flip-flop marker). *)

val text : t -> ?size:float -> Rc_geom.Point.t -> string -> unit
(** Black text with its baseline starting at the point. *)

val to_string : t -> string
(** The complete SVG document. *)
