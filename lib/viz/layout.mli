(** Layout rendering: placement + rotary ring array + tapping stubs as a
    single SVG — the picture Fig. 1(b) sketches, drawn from real flow
    data. *)

val render :
  chip:Rc_geom.Rect.t ->
  netlist:Rc_netlist.Netlist.t ->
  positions:Rc_geom.Point.t array ->
  rings:Rc_rotary.Ring_array.t ->
  taps:(int * Rc_rotary.Tapping.tap) list ->
  string
(** SVG document: die outline, logic cells (dots), flip-flops (squares),
    rings (nested square pair per ring, arrows omitted), and a stub line
    from each flip-flop cell id to its tapping point ([taps] pairs cell
    ids with taps). *)

val write :
  path:string ->
  chip:Rc_geom.Rect.t ->
  netlist:Rc_netlist.Netlist.t ->
  positions:Rc_geom.Point.t array ->
  rings:Rc_rotary.Ring_array.t ->
  taps:(int * Rc_rotary.Tapping.tap) list ->
  unit
