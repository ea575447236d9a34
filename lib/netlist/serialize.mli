(** Plain-text netlist interchange, in a small line-oriented format
    reminiscent of the bench/net formats academic placers consume:

    {v
    # comment
    circuit <name>
    chip <xmin> <ymin> <xmax> <ymax>
    cell <id> logic|ff
    pad <id> in|out <x> <y>
    net <driver> <sink> <sink> ...
    v}

    Only the writer is here: the CLI exports these files for external
    tools and never reads them back.  Cells are emitted in id order,
    before the nets that reference them. *)

val to_string : chip:Rc_geom.Rect.t -> Netlist.t -> string
(** The document {!write_file} writes. *)

val write_file : path:string -> chip:Rc_geom.Rect.t -> Netlist.t -> unit

val placement_to_string : Rc_geom.Point.t array -> string
(** One "<cell-id> <x> <y>" line per cell — a .pl-style companion file. *)
