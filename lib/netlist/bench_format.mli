(** Reader for the ISCAS89 ".bench" netlist format — the format the
    paper's actual benchmark circuits (s9234, s5378, ...) are distributed
    in, so real netlists can be fed to the flow in place of the synthetic
    generator:

    {v
    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = DFF(G14)
    G11 = NAND(G0, G10)
    G14 = NOT(G11)
    v}

    Gate types map to [Logic] cells (the delay model is type-agnostic),
    [DFF]/[DFFSR] to flip-flops, [INPUT]/[OUTPUT] to boundary pads placed
    evenly around the given die outline. Fan-out is reconstructed from
    signal usage. *)

val of_string :
  ?name:string -> chip:Rc_geom.Rect.t -> string -> (Netlist.t, string) result
(** Parse a .bench document. Errors carry a line number and reason
    (unknown gate type, undefined signal, duplicate definition...). *)

val read_file : chip:Rc_geom.Rect.t -> string -> (Netlist.t, string) result
(** Parse a file; the circuit name defaults to the file's basename. *)
