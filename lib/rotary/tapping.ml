open Rc_geom

type tap = {
  ring : int;
  point : Point.t;
  arc : float;
  conductor : Ring.conductor;
  wirelength : float;
  snaked : bool;
  periods_shifted : int;
}

(* Stub-delay coefficients: A(l) = a2·l² + a1·l in picoseconds; a1
   depends on the lumped load hanging at the stub's far end. *)
let coeff_a2 (tech : Rc_tech.Tech.t) = 0.5 *. tech.Rc_tech.Tech.r_wire *. tech.Rc_tech.Tech.c_wire /. 1000.0
let coeff_a1 (tech : Rc_tech.Tech.t) ~load = tech.Rc_tech.Tech.r_wire *. load /. 1000.0

let stub_delay_with_load tech ~load l =
  (coeff_a2 tech *. l *. l) +. (coeff_a1 tech ~load *. l)

let stub_delay tech l = stub_delay_with_load tech ~load:tech.Rc_tech.Tech.c_ff l

(* Inverse of the stub delay: the unique l >= 0 with A(l) = d (d >= 0). *)
let stub_length_for_delay tech ~load d =
  if d <= 0.0 then 0.0
  else begin
    let a2 = coeff_a2 tech and a1 = coeff_a1 tech ~load in
    let disc = (a1 *. a1) +. (4.0 *. a2 *. d) in
    ((-.a1) +. sqrt disc) /. (2.0 *. a2)
  end

(* Unclamped projection parameter of p on segment s, plus the
   perpendicular offset. *)
let local_frame (s : Segment.t) (p : Point.t) =
  let len = Segment.length s in
  if Segment.is_horizontal s then begin
    let dir = if s.Segment.b.Point.x >= s.Segment.a.Point.x then 1.0 else -1.0 in
    let u = (p.Point.x -. s.Segment.a.Point.x) *. dir in
    (u, Float.abs (p.Point.y -. s.Segment.a.Point.y), len)
  end
  else begin
    let dir = if s.Segment.b.Point.y >= s.Segment.a.Point.y then 1.0 else -1.0 in
    let u = (p.Point.y -. s.Segment.a.Point.y) *. dir in
    (u, Float.abs (p.Point.x -. s.Segment.a.Point.x), len)
  end

(* Roots of a2·u² + b·u + c = 0 (a2 > 0), numerically stable form. *)
let quadratic_roots a2 b c =
  let disc = (b *. b) -. (4.0 *. a2 *. c) in
  if disc < 0.0 then []
  else begin
    let sq = sqrt disc in
    let q = if b >= 0.0 then -.(b +. sq) /. 2.0 else -.(b -. sq) /. 2.0 in
    let r1 = q /. a2 in
    if Float.abs q < 1e-300 then [ r1 ]
    else begin
      let r2 = c /. q in
      if Float.abs (r1 -. r2) < 1e-12 then [ r1 ] else [ r1; r2 ]
    end
  end

type seg_candidate = { u : float; l : float; snake : bool }

(* All tapping candidates on one segment for effective target tau
   (already period-shifted), measured from segment-start delay t0. *)
let segment_candidates tech ~load ~rho ~t0 ~u_f ~h ~len tau =
  let a2 = coeff_a2 tech and a1 = coeff_a1 tech ~load in
  let l_of u = Float.abs (u -. u_f) +. h in
  let eps = 1e-6 in
  let cands = ref [] in
  let keep u snake =
    if u >= -.eps && u <= len +. eps then begin
      let u = Rc_util.Approx.clamp ~lo:0.0 ~hi:len u in
      cands := { u; l = l_of u; snake } :: !cands
    end
  in
  (* right branch: u >= u_f, l = (u - u_f) + h = u - c1, c1 = u_f - h *)
  let c1 = u_f -. h in
  quadratic_roots a2
    (((-2.0) *. a2 *. c1) +. a1 +. rho)
    ((a2 *. c1 *. c1) -. (a1 *. c1) +. t0 -. tau)
  |> List.iter (fun u -> if u >= u_f -. eps then keep u false);
  (* left branch: u <= u_f, l = (u_f - u) + h = c2 - u, c2 = u_f + h *)
  let c2 = u_f +. h in
  quadratic_roots a2
    (((-2.0) *. a2 *. c2) -. a1 +. rho)
    ((a2 *. c2 *. c2) +. (a1 *. c2) +. t0 -. tau)
  |> List.iter (fun u -> if u <= u_f +. eps then keep u false);
  (* Case 4: tap the far end and snake the stub *)
  let needed = tau -. t0 -. (rho *. len) in
  let l_snake = stub_length_for_delay tech ~load needed in
  if l_snake >= l_of len -. eps then
    cands := { u = len; l = Float.max l_snake (l_of len); snake = true } :: !cands;
  !cands

(* Minimum of t_f over the segment, for the Case 1 period shift. *)
let segment_min_delay tech ~load ~rho ~t0 ~u_f ~h ~len =
  let a2 = coeff_a2 tech and a1 = coeff_a1 tech ~load in
  let l_of u = Float.abs (u -. u_f) +. h in
  let f u = t0 +. (rho *. u) +. stub_delay_with_load tech ~load (l_of u) in
  let candidates = ref [ 0.0; len ] in
  if u_f > 0.0 && u_f < len then candidates := u_f :: !candidates;
  (* vertices of the two parabola branches *)
  let c1 = u_f -. h and c2 = u_f +. h in
  let v_r = -.(((-2.0) *. a2 *. c1) +. a1 +. rho) /. (2.0 *. a2) in
  if v_r >= Float.max 0.0 u_f && v_r <= len then candidates := v_r :: !candidates;
  let v_l = -.(((-2.0) *. a2 *. c2) -. a1 +. rho) /. (2.0 *. a2) in
  if v_l >= 0.0 && v_l <= Float.min len u_f then candidates := v_l :: !candidates;
  List.fold_left (fun acc u -> Float.min acc (f u)) infinity !candidates

let segment_taps tech ~load ring ~seg ~arc_start ~conductor ~ff ~target =
  let period = ring.Ring.period in
  let rho = Ring.rho ring in
  let u_f, h, len = local_frame seg ff in
  let t0 =
    ring.Ring.t_ref +. (rho *. arc_start)
    +. (match conductor with Ring.Outer -> 0.0 | Ring.Inner -> period /. 2.0)
  in
  let t_min = segment_min_delay tech ~load ~rho ~t0 ~u_f ~h ~len in
  let k0 = int_of_float (Float.ceil ((t_min -. target) /. period -. 1e-12)) in
  (* the minimal shift, plus one above in case rounding put the first
     target a hair under the curve *)
  List.concat_map
    (fun k ->
      let tau = target +. (float_of_int k *. period) in
      segment_candidates tech ~load ~rho ~t0 ~u_f ~h ~len tau
      |> List.map (fun { u; l; snake } ->
             {
               ring = ring.Ring.id;
               point = Segment.point_at seg u;
               arc = arc_start +. u;
               conductor;
               wirelength = l;
               snaked = snake;
               periods_shifted = k;
             }))
    [ k0; k0 + 1 ]

type case = Two_root | Period_shift | Tangent | Snaked

let case_of (tap : tap) ~(ff : Point.t) =
  (* precedence mirrors the paper's narrative: snaking is always case 4;
     any period shift is case 1 even if the shifted tap is tangent *)
  if tap.snaked then Snaked
  else if tap.periods_shifted <> 0 then Period_shift
  else begin
    (* a tangent (case 3) tap sits at the flip-flop's projection onto
       the segment: one coordinate coincides with the flip-flop's *)
    let dx = Float.abs (tap.point.Point.x -. ff.Point.x)
    and dy = Float.abs (tap.point.Point.y -. ff.Point.y) in
    if Float.min dx dy < 1e-6 then Tangent else Two_root
  end

let best_of taps =
  List.fold_left
    (fun acc (t : tap) ->
      match acc with Some b when b.wirelength <= t.wirelength -> acc | _ -> Some t)
    None taps

let solve ?(use_complement = true) ?load tech ring ~ff ~target =
  let load = Option.value load ~default:tech.Rc_tech.Tech.c_ff in
  let conductors = if use_complement then [ Ring.Outer; Ring.Inner ] else [ Ring.Outer ] in
  let all =
    Array.to_list (Ring.segments ring)
    |> List.concat_map (fun (seg, arc_start) ->
           List.concat_map
             (fun conductor ->
               segment_taps tech ~load ring ~seg ~arc_start ~conductor ~ff ~target)
             conductors)
  in
  match best_of all with
  | Some t -> t
  | None ->
      (* unreachable: snaking always yields a candidate *)
      assert false

let solve_on_segment tech ring ~segment ~conductor ~ff ~target =
  if segment < 0 || segment > 3 then invalid_arg "Tapping.solve_on_segment: bad segment";
  let seg, arc_start = (Ring.segments ring).(segment) in
  let load = tech.Rc_tech.Tech.c_ff in
  match best_of (segment_taps tech ~load ring ~seg ~arc_start ~conductor ~ff ~target) with
  | Some t -> t
  | None -> assert false

let curve tech ring ~segment ~ff ~samples =
  if segment < 0 || segment > 3 then invalid_arg "Tapping.curve: segment out of range";
  if samples < 2 then invalid_arg "Tapping.curve: need at least 2 samples";
  let seg, arc_start = (Ring.segments ring).(segment) in
  let rho = Ring.rho ring in
  let u_f, h, len = local_frame seg ff in
  let t0 = ring.Ring.t_ref +. (rho *. arc_start) in
  List.init samples (fun i ->
      let u = float_of_int i /. float_of_int (samples - 1) *. len in
      let l = Float.abs (u -. u_f) +. h in
      (u, t0 +. (rho *. u) +. stub_delay tech l))
