(* The seeded ECO edit stream of serve_mixed: batches of one to three
   move / shift / retarget / period edits in equal shares — the mix of
   loadgen's gen_edit — drawn from the workload seed.  Batches cross the
   wire as JSON lines; the in-process replay parses the very lines that
   were sent, exactly as the server does, so both sides apply identical
   edits whatever the float formatting. *)

open Rc_core
module Json = Rc_util.Json
module M = Measure

(* The geometry the generator draws from, read off the session_open
   result. *)
type geometry = {
  n_cells : int;
  n_ffs : int;
  n_rings : int;
  period : float;
  chip : float * float * float * float;
}

let geometry_of_open r =
  let num j k = Option.bind (Json.member k j) Json.to_float_opt in
  let int k = Option.bind (Json.member k r) Json.to_int_opt in
  let chip = Option.value (Json.member "chip" r) ~default:Json.Null in
  match
    ( int "n_cells",
      int "n_ffs",
      int "n_rings",
      num r "clock_period_ps",
      (num chip "xmin", num chip "ymin", num chip "xmax", num chip "ymax") )
  with
  | Some n_cells, Some n_ffs, Some n_rings, Some period, (Some x0, Some y0, Some x1, Some y1)
    when n_cells > 0 && n_ffs > 0 && n_rings > 0 ->
      Some { n_cells; n_ffs; n_rings; period; chip = (x0, y0, x1, y1) }
  | _ -> None

let edit rng g =
  let xmin, ymin, xmax, ymax = g.chip in
  let w = xmax -. xmin and h = ymax -. ymin in
  let unit_draw () = Random.State.float rng 1.0 in
  match Random.State.int rng 4 with
  | 0 ->
      let cell = Random.State.int rng g.n_cells in
      let x = xmin +. (unit_draw () *. w) in
      let y = ymin +. (unit_draw () *. h) in
      Json.Obj
        [
          ("kind", Json.String "move");
          ("cell", Json.Int cell);
          ("x", Json.Float x);
          ("y", Json.Float y);
        ]
  | 1 ->
      let bx = xmin +. (unit_draw () *. w *. 0.8) in
      let by = ymin +. (unit_draw () *. h *. 0.8) in
      let dx = (unit_draw () -. 0.5) *. w *. 0.04 in
      let dy = (unit_draw () -. 0.5) *. h *. 0.04 in
      Json.Obj
        [
          ("kind", Json.String "shift");
          ("xmin", Json.Float bx);
          ("ymin", Json.Float by);
          ("xmax", Json.Float (bx +. (w *. 0.2)));
          ("ymax", Json.Float (by +. (h *. 0.2)));
          ("dx", Json.Float dx);
          ("dy", Json.Float dy);
        ]
  | 2 ->
      let ff = Random.State.int rng g.n_ffs in
      let ring = Random.State.int rng g.n_rings in
      Json.Obj [ ("kind", Json.String "retarget"); ("ff", Json.Int ff); ("ring", Json.Int ring) ]
  | _ ->
      (* an absolute period in [p0, 1.2 p0], so the stream does not
         depend on the session's current period *)
      let period = g.period *. (1.0 +. (0.2 *. unit_draw ())) in
      Json.Obj [ ("kind", Json.String "period"); ("period", Json.Float period) ]

let batch rng g = List.init (1 + Random.State.int rng 3) (fun _ -> edit rng g)

(* The circuit the ECO session is opened on; the server resolves it by
   name, so it is always the Bench_suite circuit. *)
let session_bench = Bench_suite.s9234

(* Scratch replay of a session: its seed flow run afresh in process, then
   every session_edit line the client sent, in order.  Returns the final
   context and the wall time of each [Flow.apply_edits] batch. *)
let replay lines =
  let o = Flow.run (Flow.default_config session_bench) in
  List.fold_left
    (fun (ctx, times) line ->
      match Rc_serve.Protocol.parse_request line with
      | Ok { Rc_serve.Protocol.op = Rc_serve.Protocol.Session_edit_op se; _ } ->
          let (ctx', _), dt = M.time (fun () -> Flow.apply_edits ctx se.Rc_serve.Protocol.se_edits) in
          (ctx', dt :: times)
      | _ -> failwith ("replay: not a session_edit line: " ^ line))
    (Flow.context_of_outcome o, [])
    lines
