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

(* The flip-flop [p] in segment [s]'s frame: its unclamped projection
   parameter, its perpendicular offset, and the segment length. *)
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

(* ---- the Eq. 1 walker ------------------------------------------------ *)

(* Ring.segments walks the corners top-left (0), top-right (1),
   bottom-right (2), bottom-left (3) clockwise, or top-left, bottom-left,
   bottom-right, top-right counter-clockwise; segment [i] runs from the
   corner at walk position [i] to the one at [i + 1]. *)
let corner_at (ring : Ring.t) pos = if ring.Ring.clockwise then pos land 3 else (4 - pos) land 3

let corner_point (r : Rect.t) c =
  Point.make
    (if c = 0 || c = 3 then r.Rect.xmin else r.Rect.xmax)
    (if c <= 1 then r.Rect.ymax else r.Rect.ymin)

(* The candidates of every (segment, conductor, period shift) in the
   chosen ranges (segments [seg_lo .. seg_hi] of 0-3, conductors
   [cond_lo .. cond_hi] of 0 = outer, 1 = inner; shifts k0 and k0 + 1),
   walked in one fixed order, keeping the first of least stub length:
   a candidate replaces the best unless [best <= its length].  For each
   (segment, conductor, shift) the order is the snaked tap, then the
   left-branch roots last-first, then the right-branch roots last-first.
   Every value is computed by the same float operations, in the same
   order, as the candidate lists Reference_kernels.Tapping_ref builds,
   so the winner is the same tap bit for bit; but a candidate is a few
   float locals, and only the winner becomes a record, so a solve
   allocates next to nothing.  The segment geometry is read straight
   off the ring's rectangle with Ring.segments' operations. *)
let walk ~load tech (ring : Ring.t) ~(ff : Point.t) ~target ~seg_lo ~seg_hi ~cond_lo ~cond_hi =
  let a2 = coeff_a2 tech and a1 = coeff_a1 tech ~load in
  let period = ring.Ring.period in
  let rho = Ring.rho ring in
  let r = ring.Ring.rect in
  let eps = 1e-6 in
  let found = ref false and best_l = ref 0.0 and best_u = ref 0.0 and best_arc = ref 0.0 in
  let best_seg = ref 0 and best_cond = ref 0 and best_snake = ref false and best_k = ref 0 in
  let arc = ref 0.0 in
  (* scratch for one candidate and the roots of one shift: plain local
     refs, never captured, so they stay unboxed *)
  let cu = ref 0.0 and cl = ref 0.0 and cok = ref false in
  let n_left = ref 0 and left1 = ref 0.0 and left2 = ref 0.0 in
  let n_right = ref 0 and right1 = ref 0.0 and right2 = ref 0.0 in
  for i = 0 to 3 do
    let ci = corner_at ring i and cj = corner_at ring (i + 1) in
    let ax = if ci = 0 || ci = 3 then r.Rect.xmin else r.Rect.xmax
    and ay = if ci <= 1 then r.Rect.ymax else r.Rect.ymin
    and bx = if cj = 0 || cj = 3 then r.Rect.xmin else r.Rect.xmax
    and by = if cj <= 1 then r.Rect.ymax else r.Rect.ymin in
    (* Segment.length, and the arc accumulation of Ring.segments *)
    let len = Float.abs (ax -. bx) +. Float.abs (ay -. by) in
    let arc_start = !arc in
    arc := arc_start +. len;
    if i >= seg_lo && i <= seg_hi then begin
      (* local_frame, with Segment.is_horizontal's Approx.equal spelled out *)
      let horizontal =
        Float.abs (ay -. by) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs ay) (Float.abs by))
      in
      let u_f =
        if horizontal then (ff.Point.x -. ax) *. if bx >= ax then 1.0 else -1.0
        else (ff.Point.y -. ay) *. if by >= ay then 1.0 else -1.0
      and h = if horizontal then Float.abs (ff.Point.y -. ay) else Float.abs (ff.Point.x -. ax) in
      let c1 = u_f -. h and c2 = u_f +. h in
      for c = cond_lo to cond_hi do
        let t0 = ring.Ring.t_ref +. (rho *. arc_start) +. if c = 0 then 0.0 else period /. 2.0 in
        (* the least delay over the segment, for the Case 1 shift: the
           stub-delay curve at the parabola vertices, the projection and
           both ends, folded in that order *)
        let t_min = ref infinity in
        let v_l = -.(((-2.0) *. a2 *. c2) -. a1 +. rho) /. (2.0 *. a2) in
        let v_r = -.(((-2.0) *. a2 *. c1) +. a1 +. rho) /. (2.0 *. a2) in
        for q = 0 to 4 do
          (match q with
          | 0 ->
              cu := v_l;
              cok := v_l >= 0.0 && v_l <= Float.min len u_f
          | 1 ->
              cu := v_r;
              cok := v_r >= Float.max 0.0 u_f && v_r <= len
          | 2 ->
              cu := u_f;
              cok := u_f > 0.0 && u_f < len
          | 3 ->
              cu := 0.0;
              cok := true
          | _ ->
              cu := len;
              cok := true);
          if !cok then begin
            let l = Float.abs (!cu -. u_f) +. h in
            t_min := Float.min !t_min (t0 +. (rho *. !cu) +. ((a2 *. l *. l) +. (a1 *. l)))
          end
        done;
        let k0 = int_of_float (Float.ceil ((!t_min -. target) /. period -. 1e-12)) in
        for k = k0 to k0 + 1 do
          let tau = target +. (float_of_int k *. period) in
          (* the roots of a2·u² + b·u + cc = 0 on the left branch
             (u <= u_f, l = c2 - u) and the right one (u >= u_f,
             l = u - c1) *)
          for branch = 0 to 1 do
            let b =
              if branch = 0 then ((-2.0) *. a2 *. c2) -. a1 +. rho
              else ((-2.0) *. a2 *. c1) +. a1 +. rho
            and cc =
              if branch = 0 then (a2 *. c2 *. c2) +. (a1 *. c2) +. t0 -. tau
              else (a2 *. c1 *. c1) -. (a1 *. c1) +. t0 -. tau
            in
            let disc = (b *. b) -. (4.0 *. a2 *. cc) in
            let n = ref 0 and r1 = ref 0.0 and r2 = ref 0.0 in
            if not (disc < 0.0) then begin
              let sq = sqrt disc in
              let q = if b >= 0.0 then -.(b +. sq) /. 2.0 else -.(b -. sq) /. 2.0 in
              r1 := q /. a2;
              n := 1;
              if not (Float.abs q < 1e-300) then begin
                r2 := cc /. q;
                if not (Float.abs (!r1 -. !r2) < 1e-12) then n := 2
              end
            end;
            if branch = 0 then begin
              n_left := !n;
              left1 := !r1;
              left2 := !r2
            end
            else begin
              n_right := !n;
              right1 := !r1;
              right2 := !r2
            end
          done;
          (* slot 0: the snaked tap (Case 4: tap the far end and snake
             the stub); slots 1-2: the left roots, last first; slots
             3-4: the right roots, last first *)
          for slot = 0 to 4 do
            cok := false;
            if slot = 0 then begin
              let needed = tau -. t0 -. (rho *. len) in
              let l_snake =
                if needed <= 0.0 then 0.0
                else ((-.a1) +. sqrt ((a1 *. a1) +. (4.0 *. a2 *. needed))) /. (2.0 *. a2)
              in
              let l_len = Float.abs (len -. u_f) +. h in
              if l_snake >= l_len -. eps then begin
                cok := true;
                cu := len;
                cl := Float.max l_snake l_len
              end
            end
            else begin
              let left = slot <= 2 in
              let j = if left then 2 - slot else 4 - slot in
              (* root j (0 = first, 1 = second) of the branch *)
              let n = if left then !n_left else !n_right in
              if j < n then begin
                let u =
                  if left then if j = 1 then !left2 else !left1
                  else if j = 1 then !right2
                  else !right1
                in
                let on_branch = if left then u <= u_f +. eps else u >= u_f -. eps in
                if on_branch && u >= -.eps && u <= len +. eps then begin
                  let u = Rc_util.Approx.clamp ~lo:0.0 ~hi:len u in
                  cok := true;
                  cu := u;
                  cl := Float.abs (u -. u_f) +. h
                end
              end
            end;
            if !cok && not (!found && !best_l <= !cl) then begin
              found := true;
              best_l := !cl;
              best_u := !cu;
              best_arc := arc_start;
              best_seg := i;
              best_cond := c;
              best_snake := slot = 0;
              best_k := k
            end
          done
        done
      done
    end
  done;
  (* snaking reaches any target, so some candidate always exists *)
  assert !found;
  let seg =
    Segment.make
      (corner_point r (corner_at ring !best_seg))
      (corner_point r (corner_at ring (!best_seg + 1)))
  in
  {
    ring = ring.Ring.id;
    point = Segment.point_at seg !best_u;
    arc = !best_arc +. !best_u;
    conductor = (if !best_cond = 0 then Ring.Outer else Ring.Inner);
    wirelength = !best_l;
    snaked = !best_snake;
    periods_shifted = !best_k;
  }

let solve ?(use_complement = true) ?load tech ring ~ff ~target =
  let load = Option.value load ~default:tech.Rc_tech.Tech.c_ff in
  walk ~load tech ring ~ff ~target ~seg_lo:0 ~seg_hi:3 ~cond_lo:0
    ~cond_hi:(if use_complement then 1 else 0)

let solve_on_segment tech ring ~segment ~conductor ~ff ~target =
  if segment < 0 || segment > 3 then invalid_arg "Tapping.solve_on_segment: bad segment";
  let c = match conductor with Ring.Outer -> 0 | Ring.Inner -> 1 in
  walk ~load:tech.Rc_tech.Tech.c_ff tech ring ~ff ~target ~seg_lo:segment ~seg_hi:segment
    ~cond_lo:c ~cond_hi:c

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
