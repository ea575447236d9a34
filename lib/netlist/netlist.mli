(** Gate-level sequential circuit model.

    Cells are integers [0 .. n_cells-1]; each cell is a logic gate, a
    flip-flop, or an I/O pad. Every net has one driver cell and one or
    more sink cells. Pads carry fixed positions on the chip boundary;
    all other cells are placed by [Rc_place]. *)

type kind = Logic | Flipflop | Input_pad | Output_pad

type net = { driver : int; sinks : int array }

type t

val make :
  name:string ->
  kinds:kind array ->
  nets:net array ->
  pad_positions:(int * Rc_geom.Point.t) list ->
  t
(** Build and validate a netlist: net endpoints in range, output pads
    drive nothing, input pads sink nothing, every pad has a position.
    @raise Invalid_argument when structure is inconsistent. *)

val name : t -> string
val n_cells : t -> int
val n_nets : t -> int

val kind : t -> int -> kind
val is_ff : t -> int -> bool

val flip_flops : t -> int array
(** Ids of all flip-flops, ascending. *)

val logic_cells : t -> int array
val n_ffs : t -> int

val net : t -> int -> net

val iter_nets : t -> (int -> net -> unit) -> unit

val driver_net : t -> int -> int
(** Net driven by a cell, or [-1] if it drives nothing. *)

val fanin_nets : t -> int -> int list
(** Nets on which the cell is a sink. *)

val pad_position : t -> int -> Rc_geom.Point.t
(** @raise Invalid_argument if the cell is not a pad. *)

val movable : t -> int -> bool
(** True for logic cells and flip-flops (pads are fixed). *)
