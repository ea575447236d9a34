(* Reference implementations the tests hold library code to.

   The flow's flat kernels, in their plain list-based forms: the boxed
   sparse product, the point-list net bounding box, the placement system assembled per round through
   Csr.of_entries, the spreading sort on polymorphic compare, the
   list-based Eq. 1 tapping solver, the STA's pairs merged through a
   hash table, the list-folding skew refine, the list-walking SPFA with the skew
   searches rebuilt on it per probe, and the binary-heap min-cost flow.
   The tests hold the library kernels to these bit for bit, never to a
   tolerance: the flow digests depend on every bit.

   Then the independent formulations checked within a tolerance or by
   round trip: Dijkstra, the min-max Δ LP, van Ginneken buffering, and
   the .net reader and .bench writer the flow itself never needs. *)

open Rc_geom
open Rc_netlist

(* A fair coin for the property tests' random inputs: the low bit of the
   next draw, so a seed keeps naming the same inputs. *)
let coin rng = Int64.logand (Rc_util.Rng.bits64 rng) 1L = 1L

(* ---- the boxed sparse product ------------------------------------------ *)

(* [a * x] on float arrays, each row summed left to right in column
   order: the C spmv must match it bit for bit *)
let csr_mul_vec a x =
  Array.init (Rc_sparse.Csr.rows a) (fun i ->
      let acc = ref 0.0 in
      Rc_sparse.Csr.iter_row a i (fun j v -> acc := !acc +. (v *. x.(j)));
      !acc)

(* ---- placement assembly: one Csr.of_entries per system ---------------- *)

let center_anchor_weight = 1e-6

type ebuf = {
  mutable ei : int array;
  mutable ej : int array;
  mutable ev : float array;
  mutable en : int;
}

let ebuf_create () = { ei = Array.make 16 0; ej = Array.make 16 0; ev = Array.make 16 0.0; en = 0 }

let ebuf_push b i j v =
  if b.en = Array.length b.ei then begin
    let c = 2 * b.en in
    let gi = Array.make c 0 and gj = Array.make c 0 and gv = Array.make c 0.0 in
    Array.blit b.ei 0 gi 0 b.en;
    Array.blit b.ej 0 gj 0 b.en;
    Array.blit b.ev 0 gv 0 b.en;
    b.ei <- gi;
    b.ej <- gj;
    b.ev <- gv
  end;
  b.ei.(b.en) <- i;
  b.ej.(b.en) <- j;
  b.ev.(b.en) <- v;
  b.en <- b.en + 1

let movable_index netlist =
  let n = Netlist.n_cells netlist in
  let index = Array.make n (-1) in
  let movable = List.filter (Netlist.movable netlist) (List.init n Fun.id) |> Array.of_list in
  Array.iteri (fun i c -> index.(c) <- i) movable;
  (movable, index)

(* [extra_springs] are (cell id, anchor, weight); springs on fixed cells
   are skipped *)
let build_system netlist ~chip ~extra_springs =
  let movable, index = movable_index netlist in
  let m = Array.length movable in
  let buf = ebuf_create () in
  let rhs_x = Array.make m 0.0 and rhs_y = Array.make m 0.0 in
  let add_diag i w = ebuf_push buf i i w in
  let add_pair i j w =
    ebuf_push buf i i w;
    ebuf_push buf j j w;
    ebuf_push buf i j (-.w);
    ebuf_push buf j i (-.w)
  in
  let add_fixed i w (p : Point.t) =
    add_diag i w;
    rhs_x.(i) <- rhs_x.(i) +. (w *. p.Point.x);
    rhs_y.(i) <- rhs_y.(i) +. (w *. p.Point.y)
  in
  let connect a b w =
    match (index.(a), index.(b)) with
    | -1, -1 -> ()
    | ia, -1 -> add_fixed ia w (Netlist.pad_position netlist b)
    | -1, ib -> add_fixed ib w (Netlist.pad_position netlist a)
    | ia, ib -> if ia <> ib then add_pair ia ib w
  in
  Netlist.iter_nets netlist (fun _ net ->
      let k = 1 + Array.length net.Netlist.sinks in
      let w = 2.0 /. float_of_int k in
      Array.iter (fun s -> connect net.Netlist.driver s w) net.Netlist.sinks);
  let c = Rect.center chip in
  for i = 0 to m - 1 do
    add_fixed i center_anchor_weight c
  done;
  List.iter
    (fun (cell, p, w) -> if index.(cell) >= 0 then add_fixed index.(cell) w p)
    extra_springs;
  let matrix = Rc_sparse.Csr.of_entries ~rows:m ~cols:m ~len:buf.en buf.ei buf.ej buf.ev in
  (matrix, rhs_x, rhs_y)

(* ---- spreading targets: polymorphic compare on the keys --------------- *)

let spreading_targets rng chip m xs ys =
  let targets = Array.make m Point.zero in
  let idx = Array.init m Fun.id in
  let rec go (region : Rect.t) lo hi horizontal =
    let count = hi - lo in
    if count <= 2 then
      for k = lo to hi - 1 do
        let jx = Rc_util.Rng.float_in rng 0.3 0.7 and jy = Rc_util.Rng.float_in rng 0.3 0.7 in
        targets.(idx.(k)) <-
          Point.make
            (region.Rect.xmin +. (jx *. Rect.width region))
            (region.Rect.ymin +. (jy *. Rect.height region))
      done
    else begin
      let sub = Array.sub idx lo count in
      if horizontal then Array.sort (fun a b -> compare xs.(a) xs.(b)) sub
      else Array.sort (fun a b -> compare ys.(a) ys.(b)) sub;
      Array.blit sub 0 idx lo count;
      let mid = lo + (count / 2) in
      let frac = float_of_int (mid - lo) /. float_of_int count in
      if horizontal then begin
        let split = region.Rect.xmin +. (frac *. Rect.width region) in
        go (Rect.make ~xmin:region.Rect.xmin ~ymin:region.Rect.ymin ~xmax:split
              ~ymax:region.Rect.ymax) lo mid (not horizontal);
        go (Rect.make ~xmin:split ~ymin:region.Rect.ymin ~xmax:region.Rect.xmax
              ~ymax:region.Rect.ymax) mid hi (not horizontal)
      end
      else begin
        let split = region.Rect.ymin +. (frac *. Rect.height region) in
        go (Rect.make ~xmin:region.Rect.xmin ~ymin:region.Rect.ymin ~xmax:region.Rect.xmax
              ~ymax:split) lo mid (not horizontal);
        go (Rect.make ~xmin:region.Rect.xmin ~ymin:split ~xmax:region.Rect.xmax
              ~ymax:region.Rect.ymax) mid hi (not horizontal)
      end
    end
  in
  go chip 0 m (Rect.width chip >= Rect.height chip);
  targets

(* ---- the point-list bounding box --------------------------------------- *)

(* A net's HPWL as the bounding box of its pin list (driver, then the
   sinks), one record per fold step; Wirelength.net_hpwl must equal it
   bit for bit *)
let rect_of_points = function
  | [] -> invalid_arg "Reference_kernels.rect_of_points: empty"
  | (p : Point.t) :: rest ->
      List.fold_left
        (fun (r : Rect.t) (q : Point.t) ->
          {
            Rect.xmin = Float.min r.Rect.xmin q.Point.x;
            ymin = Float.min r.Rect.ymin q.Point.y;
            xmax = Float.max r.Rect.xmax q.Point.x;
            ymax = Float.max r.Rect.ymax q.Point.y;
          })
        { Rect.xmin = p.Point.x; ymin = p.Point.y; xmax = p.Point.x; ymax = p.Point.y }
        rest

let half_perimeter r = Rect.width r +. Rect.height r

let net_hpwl netlist positions ni =
  let net = Netlist.net netlist ni in
  let position c =
    if Netlist.movable netlist c then positions.(c) else Netlist.pad_position netlist c
  in
  half_perimeter
    (rect_of_points
       (position net.Netlist.driver :: Array.to_list (Array.map position net.Netlist.sinks)))

(* ---- the list-based Eq. 1 solver --------------------------------------- *)

(* Tapping.solve as first written: every candidate of 4 segments x 2
   conductors x 2 period shifts built as a record in a list, then the
   first minimum taken by a fold.  The library's walker must return the
   same tap, bit for bit. *)
module Tapping_ref = struct
  open Rc_rotary

  let coeff_a2 (tech : Rc_tech.Tech.t) =
    0.5 *. tech.Rc_tech.Tech.r_wire *. tech.Rc_tech.Tech.c_wire /. 1000.0

  let coeff_a1 (tech : Rc_tech.Tech.t) ~load = tech.Rc_tech.Tech.r_wire *. load /. 1000.0

  let stub_length_for_delay tech ~load d =
    if d <= 0.0 then 0.0
    else begin
      let a2 = coeff_a2 tech and a1 = coeff_a1 tech ~load in
      let disc = (a1 *. a1) +. (4.0 *. a2 *. d) in
      ((-.a1) +. sqrt disc) /. (2.0 *. a2)
    end

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
    let c1 = u_f -. h in
    quadratic_roots a2
      (((-2.0) *. a2 *. c1) +. a1 +. rho)
      ((a2 *. c1 *. c1) -. (a1 *. c1) +. t0 -. tau)
    |> List.iter (fun u -> if u >= u_f -. eps then keep u false);
    let c2 = u_f +. h in
    quadratic_roots a2
      (((-2.0) *. a2 *. c2) -. a1 +. rho)
      ((a2 *. c2 *. c2) +. (a1 *. c2) +. t0 -. tau)
    |> List.iter (fun u -> if u <= u_f +. eps then keep u false);
    let needed = tau -. t0 -. (rho *. len) in
    let l_snake = stub_length_for_delay tech ~load needed in
    if l_snake >= l_of len -. eps then
      cands := { u = len; l = Float.max l_snake (l_of len); snake = true } :: !cands;
    !cands

  let segment_min_delay tech ~load ~rho ~t0 ~u_f ~h ~len =
    let a2 = coeff_a2 tech and a1 = coeff_a1 tech ~load in
    let l_of u = Float.abs (u -. u_f) +. h in
    let f u = t0 +. (rho *. u) +. Tapping.stub_delay_with_load tech ~load (l_of u) in
    let candidates = ref [ 0.0; len ] in
    if u_f > 0.0 && u_f < len then candidates := u_f :: !candidates;
    let c1 = u_f -. h and c2 = u_f +. h in
    let v_r = -.(((-2.0) *. a2 *. c1) +. a1 +. rho) /. (2.0 *. a2) in
    if v_r >= Float.max 0.0 u_f && v_r <= len then candidates := v_r :: !candidates;
    let v_l = -.(((-2.0) *. a2 *. c2) -. a1 +. rho) /. (2.0 *. a2) in
    if v_l >= 0.0 && v_l <= Float.min len u_f then candidates := v_l :: !candidates;
    List.fold_left (fun acc u -> Float.min acc (f u)) infinity !candidates

  let segment_taps tech ~load (ring : Ring.t) ~seg ~arc_start ~conductor ~ff ~target =
    let period = ring.Ring.period in
    let rho = Ring.rho ring in
    let u_f, h, len = local_frame seg ff in
    let t0 =
      ring.Ring.t_ref +. (rho *. arc_start)
      +. (match conductor with Ring.Outer -> 0.0 | Ring.Inner -> period /. 2.0)
    in
    let t_min = segment_min_delay tech ~load ~rho ~t0 ~u_f ~h ~len in
    let k0 = int_of_float (Float.ceil ((t_min -. target) /. period -. 1e-12)) in
    List.concat_map
      (fun k ->
        let tau = target +. (float_of_int k *. period) in
        segment_candidates tech ~load ~rho ~t0 ~u_f ~h ~len tau
        |> List.map (fun { u; l; snake } ->
               {
                 Tapping.ring = ring.Ring.id;
                 point = Segment.point_at seg u;
                 arc = arc_start +. u;
                 conductor;
                 wirelength = l;
                 snaked = snake;
                 periods_shifted = k;
               }))
      [ k0; k0 + 1 ]

  let best_of taps =
    List.fold_left
      (fun acc (t : Tapping.tap) ->
        match acc with
        | Some (b : Tapping.tap) when b.Tapping.wirelength <= t.Tapping.wirelength -> acc
        | _ -> Some t)
      None taps

  let solve ?(use_complement = true) ?load tech ring ~ff ~target =
    let load = Option.value load ~default:tech.Rc_tech.Tech.c_ff in
    let conductors = if use_complement then [ Ring.Outer; Ring.Inner ] else [ Ring.Outer ] in
    Array.to_list (Ring.segments ring)
    |> List.concat_map (fun (seg, arc_start) ->
           List.concat_map
             (fun conductor -> segment_taps tech ~load ring ~seg ~arc_start ~conductor ~ff ~target)
             conductors)
    |> best_of |> Option.get

  let solve_on_segment tech ring ~segment ~conductor ~ff ~target =
    let seg, arc_start = (Ring.segments ring).(segment) in
    let load = tech.Rc_tech.Tech.c_ff in
    Option.get (best_of (segment_taps tech ~load ring ~seg ~arc_start ~conductor ~ff ~target))
end

(* ---- list-walking Bellman-Ford ----------------------------------------- *)

let extract_cycle pred start n =
  let seen = Hashtbl.create 16 in
  let rec walk v steps =
    if v < 0 || steps > 2 * (n + 1) then [ start ]
    else if Hashtbl.mem seen v then begin
      let cycle = ref [] and u = ref pred.(v) in
      cycle := [ v ];
      while !u <> v && !u >= 0 do
        cycle := !u :: !cycle;
        u := pred.(!u)
      done;
      !cycle
    end
    else begin
      Hashtbl.add seen v ();
      walk pred.(v) (steps + 1)
    end
  in
  walk start 0

let pred_cycle pred mark n =
  Array.fill mark 0 n (-1);
  let found = ref (-1) in
  let v = ref 0 in
  while !found < 0 && !v < n do
    if mark.(!v) < 0 then begin
      let u = ref !v in
      while !found < 0 && !u >= 0 && mark.(!u) < 0 do
        mark.(!u) <- !v;
        u := pred.(!u)
      done;
      if !found < 0 && !u >= 0 && mark.(!u) = !v then found := !u
    end;
    incr v
  done;
  !found

let bellman_ford g ~sources =
  let n = Rc_graph.Digraph.n_vertices g in
  let dist = Array.make n infinity and pred = Array.make n (-1) in
  let in_queue = Array.make n false and dequeues = Array.make n 0 in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) <> 0.0 then begin
        dist.(s) <- 0.0;
        in_queue.(s) <- true;
        Queue.add s queue
      end)
    sources;
  let cycle_at = ref (-1) in
  let mark = Array.make (max n 1) (-1) in
  let relaxations = ref 0 in
  let check_every = max 64 n in
  (try
     while not (Queue.is_empty queue) do
       let u = Queue.pop queue in
       in_queue.(u) <- false;
       dequeues.(u) <- dequeues.(u) + 1;
       if dequeues.(u) > n then begin
         cycle_at := u;
         raise Exit
       end;
       (* last-added edge first, the order of the frozen adjacency *)
       List.rev (Rc_graph.Digraph.out_edges g u)
       |> List.iter (fun (e : Rc_graph.Digraph.edge) ->
           let nd = dist.(u) +. e.weight in
           if nd < dist.(e.dst) -. 1e-12 then begin
             dist.(e.dst) <- nd;
             pred.(e.dst) <- u;
             incr relaxations;
             if !relaxations >= check_every then begin
               relaxations := 0;
               let c = pred_cycle pred mark n in
               if c >= 0 then begin
                 cycle_at := c;
                 raise Exit
               end
             end;
             if not in_queue.(e.dst) then begin
               in_queue.(e.dst) <- true;
               Queue.add e.dst queue
             end
           end)
     done
   with Exit -> ());
  if !cycle_at >= 0 then Either.Right (extract_cycle pred !cycle_at n)
  else Either.Left (dist, pred)

let feasible_potentials g =
  match bellman_ford g ~sources:(List.init (Rc_graph.Digraph.n_vertices g) Fun.id) with
  | Either.Left (dist, _) -> Some dist
  | Either.Right _ -> None

(* Dijkstra over a binary heap, for non-negative weights: the SPFA must
   reach the same distances on such graphs. *)
let dijkstra g ~source =
  let open Rc_graph in
  let n = Digraph.n_vertices g in
  let dist = Array.make n infinity and pred = Array.make n (-1) in
  let heap = Heap.create () in
  dist.(source) <- 0.0;
  Heap.push heap 0.0 source;
  let rec loop () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
        if d <= dist.(u) then
          List.iter
            (fun (e : Digraph.edge) ->
              if e.weight < 0.0 then invalid_arg "dijkstra: negative weight";
              let nd = d +. e.weight in
              if nd < dist.(e.dst) then begin
                dist.(e.dst) <- nd;
                pred.(e.dst) <- u;
                Heap.push heap nd e.dst
              end)
            (Digraph.out_edges g u);
        loop ()
  in
  loop ();
  { Shortest_path.dist; pred }

(* the source-to-[v] path along [pred]; [None] when unreachable *)
let path_to (r : Rc_graph.Shortest_path.result) v =
  if v < 0 || v >= Array.length r.dist || r.dist.(v) = infinity then None
  else begin
    let rec build acc u = if u = -1 then acc else build (u :: acc) r.pred.(u) in
    Some (build [] v)
  end

(* ---- STA pairs through a hash table ------------------------------------ *)

(* The STA's per-cell gate variation factor, restated. *)
let sta_gate_factor c =
  let r = Rc_util.Rng.create ((c * 2654435761) + 97) in
  0.9 +. Rc_util.Rng.float r 0.2

(* Every sequentially adjacent pair as (launching cell, capturing cell,
   D_max, D_min).  Each flip-flop's cone is relaxed over all logic cells
   in one topological order (no heap, no stamps), with the STA's delay
   arithmetic: wire at launch, then arrival + gate + wire per hop.  The
   cones are merged through a Hashtbl keyed by (launch, capture),
   filled flip-flop by flip-flop with each cone's sinks in first-touch
   order and folded into a list, so the list comes out in the table's
   bucket order. *)
let sta_pairs tech netlist ~positions =
  let n = Netlist.n_cells netlist in
  let out = Array.make n [] in
  Netlist.iter_nets netlist (fun _ (net : Netlist.net) ->
      Array.iter
        (fun s ->
          match Netlist.kind netlist s with
          | Netlist.Logic | Netlist.Flipflop ->
              let load = Rc_timing.Elmore.sink_load tech netlist s in
              let wire =
                Rc_timing.Elmore.point_delay tech positions.(net.driver) positions.(s) ~load
              in
              out.(net.driver) <- (s, wire) :: out.(net.driver)
          | Netlist.Input_pad | Netlist.Output_pad -> ())
        net.sinks);
  let logic c = Netlist.kind netlist c = Netlist.Logic in
  let g = Rc_graph.Digraph.create n in
  for c = 0 to n - 1 do
    if logic c then
      List.iter (fun (t, _) -> if logic t then Rc_graph.Digraph.add_edge g c t 0.0) out.(c)
  done;
  let order = Option.get (Rc_graph.Dag.topological_order g) in
  let gmax c = tech.Rc_tech.Tech.gate_delay *. sta_gate_factor c in
  let gmin c = tech.Rc_tech.Tech.gate_delay_min *. sta_gate_factor c in
  let cone f =
    let amax = Array.make n neg_infinity and amin = Array.make n infinity in
    let reached = Array.make n false in
    let rmax = Array.make n neg_infinity and rmin = Array.make n infinity in
    let sinks = ref [] in
    (* a signal reaching [t] after [vmax]/[vmin] *)
    let relax t vmax vmin =
      if Netlist.is_ff netlist t then begin
        if not (List.mem t !sinks) then sinks := t :: !sinks;
        rmax.(t) <- Float.max rmax.(t) vmax;
        rmin.(t) <- Float.min rmin.(t) vmin
      end
      else if logic t then begin
        reached.(t) <- true;
        amax.(t) <- Float.max amax.(t) vmax;
        amin.(t) <- Float.min amin.(t) vmin
      end
    in
    List.iter (fun (t, wire) -> relax t wire wire) out.(f);
    Array.iter
      (fun c ->
        if reached.(c) then begin
          let dmax = amax.(c) +. gmax c and dmin = amin.(c) +. gmin c in
          List.iter (fun (t, wire) -> relax t (dmax +. wire) (dmin +. wire)) out.(c)
        end)
      order;
    List.rev_map (fun t -> (t, rmax.(t), rmin.(t))) !sinks
  in
  let ffs = Netlist.flip_flops netlist in
  let pairs = Hashtbl.create 256 in
  Array.iter
    (fun f -> List.iter (fun (t, dmax, dmin) -> Hashtbl.replace pairs (f, t) (dmax, dmin)) (cone f))
    ffs;
  Hashtbl.fold (fun (f, t) (dmax, dmin) acc -> (f, t, dmax, dmin) :: acc) pairs []

(* ---- skew scheduling on rebuilt list graphs ---------------------------- *)

open Rc_skew

(* binary search on Δ, building the window graph afresh per probe in the
   edge order the probes once rewrote in place *)
let solve_minmax_graph ?(tolerance = 1e-3) problem ~slack ~(anchors : Cost_driven.anchor array) =
  let n = problem.Skew_problem.n in
  let base = Skew_problem.constraint_graph problem ~slack in
  let probe delta =
    let g = Rc_graph.Digraph.create (n + 1) in
    for v = 0 to Rc_graph.Digraph.n_vertices base - 1 do
      List.iter
        (fun (e : Rc_graph.Digraph.edge) -> Rc_graph.Digraph.add_edge g e.src e.dst e.weight)
        (Rc_graph.Digraph.out_edges base v)
    done;
    Array.iteri
      (fun i (a : Cost_driven.anchor) ->
        Rc_graph.Digraph.add_edge g n i (a.t_c +. delta);
        Rc_graph.Digraph.add_edge g i n (delta -. a.t_c -. (2.0 *. a.t_ci)))
      anchors;
    match bellman_ford g ~sources:[ n ] with
    | Either.Right _ -> None
    | Either.Left (dist, _) ->
        Some
          (Array.init n (fun i ->
               if dist.(i) < infinity then dist.(i) else anchors.(i).t_c +. anchors.(i).t_ci))
  in
  let span =
    Array.fold_left
      (fun acc (a : Cost_driven.anchor) -> Float.max acc (Float.abs a.t_c +. (2.0 *. a.t_ci)))
      0.0 anchors
  in
  let hi0 = (2.0 *. span) +. (4.0 *. problem.Skew_problem.period) +. 1.0 in
  match probe hi0 with
  | None -> None
  | Some skews0 ->
      let lo = ref 0.0 and hi = ref hi0 and best = ref skews0 and best_d = ref hi0 in
      (match probe 0.0 with
      | Some s ->
          best := s;
          best_d := 0.0;
          hi := 0.0
      | None -> ());
      while !hi -. !lo > tolerance do
        let mid = 0.5 *. (!lo +. !hi) in
        match probe mid with
        | Some s ->
            best := s;
            best_d := mid;
            hi := mid
        | None -> lo := mid
      done;
      Some (!best, !best_d)

(* max-slack search with a fresh constraint graph per probe; returns the
   un-normalized potentials and the slack *)
let solve_max_slack ?(tolerance = 1e-3) problem =
  let feasible_skews slack =
    feasible_potentials (Skew_problem.constraint_graph problem ~slack)
  in
  let hi0 = Skew_problem.slack_upper_bound problem in
  if hi0 = infinity then None
  else
    match feasible_skews hi0 with
    | Some p -> Some (p, hi0)
    | None -> (
        let rec find_lo lo attempts =
          if attempts = 0 then None
          else
            match feasible_skews lo with
            | Some p -> Some (lo, p)
            | None -> find_lo (lo -. ((2.0 *. (hi0 -. lo)) +. 1.0)) (attempts - 1)
        in
        match find_lo (Float.min 0.0 hi0) 64 with
        | None -> None
        | Some (lo0, p0) ->
            let lo = ref lo0 and hi = ref hi0 and best = ref p0 in
            while !hi -. !lo > tolerance do
              let mid = 0.5 *. (!lo +. !hi) in
              match feasible_skews mid with
              | Some p ->
                  best := p;
                  lo := mid
              | None -> hi := mid
            done;
            Some (!best, !lo))

let refine_toward_anchors ?(sweeps = 8) problem ~slack ~(anchors : Cost_driven.anchor array)
    ~skews =
  let n = problem.Skew_problem.n in
  let t = Array.copy skews in
  let uppers = Array.make n [] and lowers = Array.make n [] in
  for q = 0 to Skew_problem.n_pairs problem - 1 do
    let i = problem.Skew_problem.src.(q) and j = problem.Skew_problem.dst.(q) in
    if i <> j then begin
      let setup =
        problem.Skew_problem.period -. problem.Skew_problem.d_max.(q)
        -. problem.Skew_problem.t_setup -. slack
      in
      let hold = slack +. problem.Skew_problem.t_hold -. problem.Skew_problem.d_min.(q) in
      uppers.(i) <- (j, setup) :: uppers.(i);
      lowers.(i) <- (j, hold) :: lowers.(i);
      lowers.(j) <- (i, -.setup) :: lowers.(j);
      uppers.(j) <- (i, -.hold) :: uppers.(j)
    end
  done;
  for _ = 1 to sweeps do
    for i = 0 to n - 1 do
      let hi =
        List.fold_left (fun acc (j, ub) -> Float.min acc (t.(j) +. ub)) infinity uppers.(i)
      in
      let lo =
        List.fold_left (fun acc (j, lb) -> Float.max acc (t.(j) +. lb)) neg_infinity lowers.(i)
      in
      if lo <= hi then begin
        let ideal = anchors.(i).t_c +. anchors.(i).t_ci in
        t.(i) <- Float.min hi (Float.max lo ideal)
      end
    done
  done;
  t

(* The min-max (Δ) schedule of the cost-driven stage as one LP: the
   graph engine's binary search must reach the same optimum. *)
let solve_minmax_lp problem ~slack ~(anchors : Cost_driven.anchor array) =
  let open Rc_lp in
  let p = Problem.create () in
  let n = problem.Skew_problem.n in
  let t_vars = Array.init n (fun _ -> Problem.add_var p) in
  let delta = Problem.add_var ~lo:0.0 ~obj:1.0 p in
  for q = 0 to Skew_problem.n_pairs problem - 1 do
    let i = problem.Skew_problem.src.(q) and j = problem.Skew_problem.dst.(q) in
    ignore
      (Problem.add_row p
         [ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ]
         Problem.Le
         (problem.Skew_problem.period -. problem.Skew_problem.d_max.(q)
        -. problem.Skew_problem.t_setup -. slack));
    ignore
      (Problem.add_row p
         [ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ]
         Problem.Ge
         (slack +. problem.Skew_problem.t_hold -. problem.Skew_problem.d_min.(q)))
  done;
  Array.iteri
    (fun i (a : Cost_driven.anchor) ->
      ignore
        (Problem.add_row p
           [ (t_vars.(i), -1.0); (delta, -1.0) ]
           Problem.Le
           (-.a.t_c -. (2.0 *. a.t_ci)));
      ignore (Problem.add_row p [ (t_vars.(i), 1.0); (delta, -1.0) ] Problem.Le a.t_c))
    anchors;
  match Simplex.solve p with
  | { Simplex.status = Simplex.Optimal; x; _ } ->
      Some { Cost_driven.skews = Array.map (fun v -> x.(v)) t_vars; objective = x.(delta) }
  | _ -> None

(* ---- the LP engine on a dense bump -------------------------------------- *)

(* The simplex, basis factorization and dense LU as they were before
   the bump was stored sparse: every FTRAN and BTRAN walks the dense
   bump in full, the eta file is a list of dense columns, and pricing
   reads per-column arrays.  The library engine must take the same
   pivots and return the same status, iterations, x, objective and
   duals; its factors and solves must equal these under IEEE [=] (the
   sign of a zero may differ, nothing else). *)

module Dense_ref = struct
  type mat = { r : int; c : int; a : float array }

  let create r c =
    if r < 0 || c < 0 then invalid_arg "Dense.create";
    { r; c; a = Array.make (max 1 (r * c)) 0.0 }

  let get m i j = m.a.((i * m.c) + j)
  let set m i j v = m.a.((i * m.c) + j) <- v
  let copy m = { m with a = Array.copy m.a }

  type lu = { lu_mat : mat; perm : int array }

  let lu_factor m0 =
    if m0.r <> m0.c then invalid_arg "Dense.lu_factor: not square";
    let n = m0.r in
    let m = copy m0 in
    let perm = Array.init n Fun.id in
    let singular = ref false in
    (try
       for k = 0 to n - 1 do
         (* partial pivot *)
         let piv = ref k and best = ref (Float.abs (get m k k)) in
         for i = k + 1 to n - 1 do
           let v = Float.abs (get m i k) in
           if v > !best then begin
             best := v;
             piv := i
           end
         done;
         if !best < 1e-12 then begin
           singular := true;
           raise Exit
         end;
         if !piv <> k then begin
           for j = 0 to n - 1 do
             let t = get m k j in
             set m k j (get m !piv j);
             set m !piv j t
           done;
           let t = perm.(k) in
           perm.(k) <- perm.(!piv);
           perm.(!piv) <- t
         end;
         let pivot = get m k k in
         for i = k + 1 to n - 1 do
           let f = get m i k /. pivot in
           set m i k f;
           if f <> 0.0 then
             for j = k + 1 to n - 1 do
               set m i j (get m i j -. (f *. get m k j))
             done
         done
       done
     with Exit -> ());
    if !singular then None else Some { lu_mat = m; perm }

  let lu_solve { lu_mat = m; perm } b =
    let n = m.r in
    if Array.length b <> n then invalid_arg "Dense.lu_solve: size mismatch";
    let x = Array.init n (fun i -> b.(perm.(i))) in
    (* forward: L y = Pb, unit diagonal *)
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (get m i j *. x.(j))
      done;
      x.(i) <- !acc
    done;
    (* backward: U x = y *)
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get m i j *. x.(j))
      done;
      x.(i) <- !acc /. get m i i
    done;
    x

  let lu_solve_transpose { lu_mat = m; perm } b =
    (* Aᵀ x = b  with P A = L U  =>  Aᵀ = Uᵀ Lᵀ P, solve Uᵀ y = b,
       Lᵀ z = y, then x = Pᵀ z. *)
    let n = m.r in
    if Array.length b <> n then invalid_arg "Dense.lu_solve_transpose: size mismatch";
    let y = Array.copy b in
    for i = 0 to n - 1 do
      let acc = ref y.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (get m j i *. y.(j))
      done;
      y.(i) <- !acc /. get m i i
    done;
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get m j i *. y.(j))
      done;
      y.(i) <- !acc
    done;
    let x = Array.make n 0.0 in
    for i = 0 to n - 1 do
      x.(perm.(i)) <- y.(i)
    done;
    x
end

module Sparse_lu_ref = struct
  type t = {
    m : int;
    col_rows : int array array;  (* per column: row indices *)
    col_vals : float array array;
    row_cols : (int * float) array array;  (* per row: (col, value) *)
    pivots : (int * int) array;  (* peeled (row, col) in peel order *)
    pivot_val : float array;  (* value at each peeled pivot *)
    peel_order_of_col : int array;  (* col -> index in pivots, -1 if bump *)
    bump_rows : int array;
    bump_cols : int array;
    bump_pos_of_row : int array;  (* row -> index into bump_rows, -1 otherwise *)
    bump_pos_of_col : int array;
    bump_lu : Dense_ref.lu option;  (* None iff bump is empty *)
  }

  let factor ~m ~cols =
    if Array.length cols <> m then invalid_arg "Sparse_lu.factor: need m columns";
    Array.iter
      (fun (rows, vals) ->
        if Array.length rows <> Array.length vals then
          invalid_arg "Sparse_lu.factor: ragged column";
        Array.iter
          (fun r -> if r < 0 || r >= m then invalid_arg "Sparse_lu.factor: row out of range")
          rows)
      cols;
    let col_rows = Array.map fst cols and col_vals = Array.map snd cols in
    (* row-wise view *)
    let row_acc = Array.make m [] in
    Array.iteri
      (fun j (rows, vals) ->
        Array.iteri (fun k r -> row_acc.(r) <- (j, vals.(k)) :: row_acc.(r)) rows)
      cols;
    let row_cols = Array.map Array.of_list row_acc in
    (* active counts for singleton peeling *)
    let row_active = Array.make m true and col_active = Array.make m true in
    let col_cnt = Array.map Array.length col_rows in
    let queue = Queue.create () in
    Array.iteri (fun j c -> if c = 1 then Queue.add j queue) col_cnt;
    let pivots = ref [] and n_peeled = ref 0 in
    let pivot_val = Array.make m 0.0 in
    let peel_order_of_col = Array.make m (-1) in
    let singular = ref false in
    while not (Queue.is_empty queue) do
      let j = Queue.pop queue in
      if col_active.(j) && col_cnt.(j) = 1 then begin
        (* find the single active row of column j *)
        let r = ref (-1) and v = ref 0.0 in
        Array.iteri
          (fun k ri ->
            if row_active.(ri) then begin
              r := ri;
              v := col_vals.(j).(k)
            end)
          col_rows.(j);
        if !r < 0 then ()
        else if Float.abs !v < 1e-11 then singular := true
        else begin
          peel_order_of_col.(j) <- !n_peeled;
          pivot_val.(!n_peeled) <- !v;
          pivots := (!r, j) :: !pivots;
          incr n_peeled;
          col_active.(j) <- false;
          row_active.(!r) <- false;
          (* deactivating row r may create new column singletons *)
          Array.iter
            (fun (jc, _) ->
              if col_active.(jc) then begin
                col_cnt.(jc) <- col_cnt.(jc) - 1;
                if col_cnt.(jc) = 1 then Queue.add jc queue
              end)
            row_cols.(!r)
        end
      end
    done;
    if !singular then None
    else begin
      let pivots = Array.of_list (List.rev !pivots) in
      let bump_rows =
        Array.of_list (List.filter (fun r -> row_active.(r)) (List.init m Fun.id))
      in
      let bump_cols =
        Array.of_list (List.filter (fun j -> col_active.(j)) (List.init m Fun.id))
      in
      let nb = Array.length bump_rows in
      if nb <> Array.length bump_cols then None
      else begin
        let bump_pos_of_row = Array.make m (-1) and bump_pos_of_col = Array.make m (-1) in
        Array.iteri (fun i r -> bump_pos_of_row.(r) <- i) bump_rows;
        Array.iteri (fun i j -> bump_pos_of_col.(j) <- i) bump_cols;
        let bump_lu =
          if nb = 0 then Some None
          else begin
            let s = Dense_ref.create nb nb in
            Array.iteri
              (fun bj j ->
                Array.iteri
                  (fun k r ->
                    let br = bump_pos_of_row.(r) in
                    if br >= 0 then Dense_ref.set s br bj col_vals.(j).(k))
                  col_rows.(j))
              bump_cols;
            match Dense_ref.lu_factor s with None -> None | Some f -> Some (Some f)
          end
        in
        match bump_lu with
        | None -> None
        | Some bump_lu ->
            Some
              {
                m;
                col_rows;
                col_vals;
                row_cols;
                pivots;
                pivot_val;
                peel_order_of_col;
                bump_rows;
                bump_cols;
                bump_pos_of_row;
                bump_pos_of_col;
                bump_lu;
              }
      end
    end

  let bump_size t = Array.length t.bump_rows

  (* B x = b.  Permuted form: [U11 U12; 0 S] with U11 upper triangular in
     peel order. Solve S x2 = b2 first, then back-substitute the peeled
     columns in reverse peel order using the pivot rows. *)
  let solve t b =
    if Array.length b <> t.m then invalid_arg "Sparse_lu.solve: size mismatch";
    let x = Array.make t.m 0.0 in
    (match t.bump_lu with
    | None -> ()
    | Some lu ->
        let nb = Array.length t.bump_rows in
        let b2 = Array.make nb 0.0 in
        Array.iteri (fun i r -> b2.(i) <- b.(r)) t.bump_rows;
        let x2 = Dense_ref.lu_solve lu b2 in
        Array.iteri (fun i j -> x.(j) <- x2.(i)) t.bump_cols);
    for tt = Array.length t.pivots - 1 downto 0 do
      let r, c = t.pivots.(tt) in
      let acc = ref b.(r) in
      Array.iter (fun (jc, v) -> if jc <> c then acc := !acc -. (v *. x.(jc))) t.row_cols.(r);
      x.(c) <- !acc /. t.pivot_val.(tt)
    done;
    x

  (* Bᵀ y = d.  Peeled columns resolve y at their pivot rows in forward
     peel order; the bump then solves Sᵀ y_b = d_b − U12ᵀ y_peeled. *)
  let solve_transpose t d =
    if Array.length d <> t.m then invalid_arg "Sparse_lu.solve_transpose: size mismatch";
    let y = Array.make t.m 0.0 in
    for tt = 0 to Array.length t.pivots - 1 do
      let r, c = t.pivots.(tt) in
      let acc = ref d.(c) in
      Array.iteri
        (fun k ri -> if ri <> r then acc := !acc -. (t.col_vals.(c).(k) *. y.(ri)))
        t.col_rows.(c);
      y.(r) <- !acc /. t.pivot_val.(tt)
    done;
    (match t.bump_lu with
    | None -> ()
    | Some lu ->
        let nb = Array.length t.bump_rows in
        let d2 = Array.make nb 0.0 in
        Array.iteri
          (fun i j ->
            let acc = ref d.(j) in
            Array.iteri
              (fun k r -> if t.bump_pos_of_row.(r) < 0 then acc := !acc -. (t.col_vals.(j).(k) *. y.(r)))
              t.col_rows.(j);
            d2.(i) <- !acc)
          t.bump_cols;
        let y2 = Dense_ref.lu_solve_transpose lu d2 in
        Array.iteri (fun i r -> y.(r) <- y2.(i)) t.bump_rows);
    y
end

module Simplex_ref = struct
  open Rc_lp.Simplex

  (* Internal column-wise representation. Columns 0..nv-1 are structural,
     nv..nv+m-1 slacks, nv+m..nv+2m-1 artificials. *)

  type eta = { pos : int; w : float array }

  type state = {
    m : int;
    ncols : int;
    col_rows : int array array;  (* per column: row indices *)
    col_vals : float array array;
    lo : float array;
    hi : float array;
    cost : float array;  (* current-phase costs *)
    real_cost : float array;
    rhs : float array;
    basic_of_row : int array;
    pos_in_basis : int array;  (* -1 when nonbasic *)
    nb_val : float array;  (* value of each nonbasic column *)
    x_b : float array;  (* values of basic variables, by row position *)
    mutable lu : Sparse_lu_ref.t;
    mutable etas : eta list;  (* newest first *)
    mutable n_etas : int;
  }

  let refactor_interval = 20

  let col_dot st j (y : float array) =
    let rows = st.col_rows.(j) and vals = st.col_vals.(j) in
    let acc = ref 0.0 in
    for k = 0 to Array.length rows - 1 do
      acc := !acc +. (vals.(k) *. y.(rows.(k)))
    done;
    !acc

  let col_to_dense st j =
    let v = Array.make st.m 0.0 in
    let rows = st.col_rows.(j) and vals = st.col_vals.(j) in
    for k = 0 to Array.length rows - 1 do
      v.(rows.(k)) <- vals.(k)
    done;
    v

  (* FTRAN: solve B u = v in place of a fresh array. *)
  let ftran st v =
    let u = Sparse_lu_ref.solve st.lu v in
    List.iter
      (fun { pos; w } ->
        let ur = u.(pos) /. w.(pos) in
        for i = 0 to st.m - 1 do
          if i <> pos then u.(i) <- u.(i) -. (w.(i) *. ur)
        done;
        u.(pos) <- ur)
      (List.rev st.etas);
    u

  (* BTRAN: solve Bᵀ y = c. *)
  let btran st c =
    let v = Array.copy c in
    List.iter
      (fun { pos; w } ->
        let acc = ref v.(pos) in
        for i = 0 to st.m - 1 do
          if i <> pos then acc := !acc -. (w.(i) *. v.(i))
        done;
        v.(pos) <- !acc /. w.(pos))
      st.etas;
    Sparse_lu_ref.solve_transpose st.lu v

  let basis_columns st =
    Array.init st.m (fun k ->
        let j = st.basic_of_row.(k) in
        (st.col_rows.(j), st.col_vals.(j)))

  let recompute_x_b st =
    (* x_B = B⁻¹ (rhs - Σ nonbasic A_j v_j) *)
    let r = Array.copy st.rhs in
    for j = 0 to st.ncols - 1 do
      if st.pos_in_basis.(j) < 0 && st.nb_val.(j) <> 0.0 then begin
        let rows = st.col_rows.(j) and vals = st.col_vals.(j) in
        for k = 0 to Array.length rows - 1 do
          r.(rows.(k)) <- r.(rows.(k)) -. (vals.(k) *. st.nb_val.(j))
        done
      end
    done;
    let xb = ftran st r in
    Array.blit xb 0 st.x_b 0 st.m

  let refactorize st =
    match Sparse_lu_ref.factor ~m:st.m ~cols:(basis_columns st) with
    | Some lu ->
        st.lu <- lu;
        st.etas <- [];
        st.n_etas <- 0;
        recompute_x_b st
    | None -> failwith "Simplex: singular basis during refactorization"

  exception Done of status

  (* feasibility/optimality tolerance *)
  let eps = 1e-7

  let solve problem =
    let nv = Rc_lp.Problem.n_vars problem and m = Rc_lp.Problem.n_rows problem in
    let max_iter = 20000 + (50 * (m + nv)) in
    let ncols = nv + m + m in
    let col_rows = Array.make ncols [||] and col_vals = Array.make ncols [||] in
    let lo = Array.make ncols neg_infinity and hi = Array.make ncols infinity in
    let real_cost = Array.make ncols 0.0 in
    let rhs = Array.make m 0.0 in
    (* structural columns: gather per-column entries from rows *)
    let per_col = Array.make nv [] in
    Rc_lp.Problem.iter_rows problem (fun i coeffs _sense r ->
        rhs.(i) <- r;
        List.iter (fun (j, v) -> per_col.(j) <- (i, v) :: per_col.(j)) coeffs);
    for j = 0 to nv - 1 do
      let entries = List.rev per_col.(j) in
      col_rows.(j) <- Array.of_list (List.map fst entries);
      col_vals.(j) <- Array.of_list (List.map snd entries);
      lo.(j) <- Rc_lp.Problem.var_lo problem j;
      hi.(j) <- Rc_lp.Problem.var_hi problem j;
      real_cost.(j) <- Rc_lp.Problem.var_obj problem j
    done;
    (* slack columns *)
    Rc_lp.Problem.iter_rows problem (fun i _ sense _ ->
        let j = nv + i in
        col_rows.(j) <- [| i |];
        col_vals.(j) <- [| 1.0 |];
        (match sense with
        | Rc_lp.Problem.Le ->
            lo.(j) <- 0.0;
            hi.(j) <- infinity
        | Rc_lp.Problem.Ge ->
            lo.(j) <- neg_infinity;
            hi.(j) <- 0.0
        | Rc_lp.Problem.Eq ->
            lo.(j) <- 0.0;
            hi.(j) <- 0.0));
    (* initial nonbasic values for structural + slack columns *)
    let nb_val = Array.make ncols 0.0 in
    for j = 0 to nv + m - 1 do
      nb_val.(j) <-
        (if Float.is_finite lo.(j) then lo.(j) else if Float.is_finite hi.(j) then hi.(j) else 0.0)
    done;
    (* residuals decide artificial signs *)
    let resid = Array.copy rhs in
    for j = 0 to nv + m - 1 do
      if nb_val.(j) <> 0.0 then begin
        let rows = col_rows.(j) and vals = col_vals.(j) in
        for k = 0 to Array.length rows - 1 do
          resid.(rows.(k)) <- resid.(rows.(k)) -. (vals.(k) *. nb_val.(j))
        done
      end
    done;
    let cost = Array.make ncols 0.0 in
    for i = 0 to m - 1 do
      let j = nv + m + i in
      let sign = if resid.(i) >= 0.0 then 1.0 else -1.0 in
      col_rows.(j) <- [| i |];
      col_vals.(j) <- [| sign |];
      lo.(j) <- 0.0;
      hi.(j) <- infinity;
      cost.(j) <- 1.0
    done;
    let basic_of_row = Array.init m (fun i -> nv + m + i) in
    let pos_in_basis = Array.make ncols (-1) in
    Array.iteri (fun k j -> pos_in_basis.(j) <- k) basic_of_row;
    let x_b = Array.init m (fun i -> Float.abs resid.(i)) in
    let lu =
      let cols0 = Array.init m (fun k ->
          let j = basic_of_row.(k) in
          (col_rows.(j), col_vals.(j)))
      in
      match Sparse_lu_ref.factor ~m ~cols:cols0 with
      | Some lu -> lu
      | None -> failwith "Simplex: initial basis singular"
    in
    let st =
      { m; ncols; col_rows; col_vals; lo; hi; cost; real_cost; rhs; basic_of_row; pos_in_basis;
        nb_val; x_b; lu; etas = []; n_etas = 0 }
    in
    let iterations = ref 0 in
    let stall = ref 0 in
    let last_obj = ref infinity in
    let current_obj () =
      let acc = ref 0.0 in
      for k = 0 to m - 1 do
        acc := !acc +. (st.cost.(st.basic_of_row.(k)) *. st.x_b.(k))
      done;
      for j = 0 to ncols - 1 do
        if st.pos_in_basis.(j) < 0 then acc := !acc +. (st.cost.(j) *. st.nb_val.(j))
      done;
      !acc
    in
    (* One simplex phase over current costs; returns terminal status. *)
    let run_phase phase_max =
      try
        while true do
          if !iterations >= phase_max then raise (Done Iteration_limit);
          incr iterations;
          if st.n_etas >= refactor_interval then refactorize st;
          (* pricing *)
          let cb = Array.init m (fun k -> st.cost.(st.basic_of_row.(k))) in
          let y = btran st cb in
          let use_bland = !stall > 80 in
          let enter = ref (-1) and enter_dir = ref 1.0 and best_score = ref eps in
          let examine j =
            if st.pos_in_basis.(j) < 0 && st.lo.(j) < st.hi.(j) then begin
              let d = st.cost.(j) -. col_dot st j y in
              let at_lo = Float.is_finite st.lo.(j) && st.nb_val.(j) <= st.lo.(j) +. 1e-9 in
              let at_hi = Float.is_finite st.hi.(j) && st.nb_val.(j) >= st.hi.(j) -. 1e-9 in
              let eligible_dir =
                if (not at_lo) && not at_hi then
                  (* free variable *)
                  if d < -.eps then Some 1.0 else if d > eps then Some (-1.0) else None
                else if at_lo && d < -.eps then Some 1.0
                else if at_hi && d > eps then Some (-1.0)
                else None
              in
              match eligible_dir with
              | Some dir ->
                  let score = Float.abs d in
                  if use_bland then begin
                    enter := j;
                    enter_dir := dir;
                    raise Exit
                  end
                  else if score > !best_score then begin
                    best_score := score;
                    enter := j;
                    enter_dir := dir
                  end
              | None -> ()
            end
          in
          (* full Dantzig pricing: the worse entering choices of partial
             pricing cost more in extra degenerate pivots than the scan
             saves on these assignment-structured LPs *)

          (try
             for j = 0 to ncols - 1 do
               examine j
             done
           with Exit -> ());
          if !enter < 0 then raise (Done Optimal);
          let e = !enter and dir = !enter_dir in
          let w = ftran st (col_to_dense st e) in
          (* ratio test: x_b(k) changes by -t * dir * w(k) for step t >= 0 *)
          let t_best = ref infinity and leave = ref (-1) and leave_to_hi = ref false in
          for k = 0 to m - 1 do
            let g = dir *. w.(k) in
            let jb = st.basic_of_row.(k) in
            if g > 1e-9 then begin
              if Float.is_finite st.lo.(jb) then begin
                let t = (st.x_b.(k) -. st.lo.(jb)) /. g in
                if
                  t < !t_best -. 1e-12
                  || (t < !t_best +. 1e-12 && !leave >= 0 && jb < st.basic_of_row.(!leave))
                then begin
                  t_best := Float.max t 0.0;
                  leave := k;
                  leave_to_hi := false
                end
              end
            end
            else if g < -1e-9 then begin
              if Float.is_finite st.hi.(jb) then begin
                let t = (st.x_b.(k) -. st.hi.(jb)) /. g in
                if
                  t < !t_best -. 1e-12
                  || (t < !t_best +. 1e-12 && !leave >= 0 && jb < st.basic_of_row.(!leave))
                then begin
                  t_best := Float.max t 0.0;
                  leave := k;
                  leave_to_hi := true
                end
              end
            end
          done;
          let t_bound =
            if Float.is_finite st.lo.(e) && Float.is_finite st.hi.(e) then st.hi.(e) -. st.lo.(e)
            else infinity
          in
          if t_bound < !t_best then begin
            (* bound flip: entering moves to its opposite bound *)
            let t = t_bound in
            for k = 0 to m - 1 do
              st.x_b.(k) <- st.x_b.(k) -. (t *. dir *. w.(k))
            done;
            st.nb_val.(e) <- (if dir > 0.0 then st.hi.(e) else st.lo.(e))
          end
          else if !leave < 0 then raise (Done Unbounded)
          else begin
            let t = !t_best in
            let k = !leave in
            let jb = st.basic_of_row.(k) in
            for i = 0 to m - 1 do
              st.x_b.(i) <- st.x_b.(i) -. (t *. dir *. w.(i))
            done;
            let enter_val = st.nb_val.(e) +. (dir *. t) in
            (* swap basis *)
            st.basic_of_row.(k) <- e;
            st.pos_in_basis.(e) <- k;
            st.pos_in_basis.(jb) <- -1;
            st.nb_val.(jb) <- (if !leave_to_hi then st.hi.(jb) else st.lo.(jb));
            st.x_b.(k) <- enter_val;
            st.etas <- { pos = k; w } :: st.etas;
            st.n_etas <- st.n_etas + 1
          end;
          let obj = current_obj () in
          if obj < !last_obj -. 1e-10 then begin
            stall := 0;
            last_obj := obj
          end
          else incr stall
        done;
        assert false
      with Done s -> s
    in
    let finish status =
      let x = Array.make nv 0.0 in
      for j = 0 to nv - 1 do
        x.(j) <- (if st.pos_in_basis.(j) >= 0 then st.x_b.(st.pos_in_basis.(j)) else st.nb_val.(j))
      done;
      let objective = ref 0.0 in
      for j = 0 to nv - 1 do
        objective := !objective +. (st.real_cost.(j) *. x.(j))
      done;
      let cb = Array.init m (fun k -> st.real_cost.(st.basic_of_row.(k))) in
      let duals = if m > 0 then btran st cb else [||] in
      { status; x; objective = !objective; duals; iterations = !iterations }
    in
    (* Phase 1 *)
    let phase1_status = run_phase max_iter in
    (match phase1_status with
    | Iteration_limit -> ()
    | Unbounded -> failwith "Simplex: phase 1 unbounded (internal error)"
    | _ -> ());
    if phase1_status = Iteration_limit then finish Iteration_limit
    else begin
      let phase1_obj = current_obj () in
      if phase1_obj > 1e-6 then finish Infeasible
      else begin
        (* switch to phase 2: real costs, artificials pinned to zero *)
        for j = 0 to ncols - 1 do
          st.cost.(j) <- (if j < nv then st.real_cost.(j) else 0.0)
        done;
        for i = 0 to m - 1 do
          let j = nv + m + i in
          st.hi.(j) <- 0.0;
          if st.pos_in_basis.(j) < 0 then st.nb_val.(j) <- 0.0
        done;
        stall := 0;
        last_obj := infinity;
        let status2 = run_phase max_iter in
        finish status2
      end
    end
end

(* ---- min-cost flow: binary-heap successive shortest paths -------------- *)

(* Successive shortest paths with a full Dijkstra sweep on a binary
   heap per augmentation and potentials updated over every reached
   vertex: the reference for [Mcmf.solve]'s bucket-Dijkstra core.
   [arcs] are (src, dst, capacity, cost) on vertices [0, n); costs must
   be non-negative, so the zero dual is feasible, as in [Mcmf.solve].
   Each arc is stored beside its reverse and a vertex's arcs are walked
   newest first, the residual layout of [Mcmf].  Returns the max flow
   and its cost. *)
let mcmf ~n arcs ~source ~sink =
  let m = 2 * List.length arcs in
  let heads = Array.make m 0 and caps = Array.make m 0 and costs = Array.make m 0.0 in
  let next = Array.make m (-1) and first = Array.make n (-1) in
  let push a tail head cap cost =
    heads.(a) <- head;
    caps.(a) <- cap;
    costs.(a) <- cost;
    next.(a) <- first.(tail);
    first.(tail) <- a
  in
  List.iteri
    (fun i (src, dst, cap, cost) ->
      if cost < 0.0 then invalid_arg "Reference_kernels.mcmf: negative cost";
      push (2 * i) src dst cap cost;
      push ((2 * i) + 1) dst src 0 (-.cost))
    arcs;
  let pot = Array.make n 0.0 in
  let dist = Array.make n infinity and pred_arc = Array.make n (-1) in
  let total_flow = ref 0 and total_cost = ref 0.0 in
  let continue = ref true in
  while !continue do
    Array.fill dist 0 n infinity;
    Array.fill pred_arc 0 n (-1);
    dist.(source) <- 0.0;
    let heap = Rc_graph.Heap.create () in
    Rc_graph.Heap.push heap 0.0 source;
    let rec loop () =
      match Rc_graph.Heap.pop_min heap with
      | None -> ()
      | Some (d, v) ->
          if d <= dist.(v) +. 1e-12 then begin
            let a = ref first.(v) in
            while !a >= 0 do
              if caps.(!a) > 0 then begin
                let u = heads.(!a) in
                let rc = costs.(!a) +. pot.(v) -. pot.(u) in
                let rc = if rc < 0.0 then 0.0 else rc in
                let nd = d +. rc in
                if nd < dist.(u) -. 1e-12 then begin
                  dist.(u) <- nd;
                  pred_arc.(u) <- !a;
                  Rc_graph.Heap.push heap nd u
                end
              end;
              a := next.(!a)
            done
          end;
          loop ()
    in
    loop ();
    if dist.(sink) = infinity then continue := false
    else begin
      for v = 0 to n - 1 do
        if dist.(v) < infinity then pot.(v) <- pot.(v) +. dist.(v)
      done;
      let bottleneck = ref max_int in
      let v = ref sink in
      while !v <> source do
        let a = pred_arc.(!v) in
        if caps.(a) < !bottleneck then bottleneck := caps.(a);
        v := heads.(a lxor 1)
      done;
      let f = !bottleneck in
      let v = ref sink in
      while !v <> source do
        let a = pred_arc.(!v) in
        caps.(a) <- caps.(a) - f;
        caps.(a lxor 1) <- caps.(a lxor 1) + f;
        total_cost := !total_cost +. (float_of_int f *. costs.(a));
        v := heads.(a lxor 1)
      done;
      total_flow := !total_flow + f
    end
  done;
  (!total_flow, !total_cost)

(* ---- van Ginneken buffering: the exact reference for the [31]-style
   repeater estimate ------------------------------------------------------ *)

(* The paper estimates signal-net repeater counts with the
   floorplan-stage model of [31] (Power.estimated_buffers); this is the
   exact counterpart it is checked against: the classic dynamic program
   that, given a routed RC tree and a buffer library entry, chooses
   buffer positions minimizing the maximum driver-to-sink Elmore delay.
   Candidate positions subdivide every wire ([segment], default 200 um);
   option lists are pruned to their Pareto front (capacitance vs delay),
   which keeps the DP quadratic.  [driver_r] (default the buffer's
   [r_out]) models the net's driver for the final delay. *)
module Buffering = struct
  type rctree =
    | Sink of { cap : float; tag : int }
    | Wire of { length : float; child : rctree }
    | Branch of rctree * rctree

  type buffer = { t_intrinsic : float; r_out : float; c_in : float }

  let default_buffer = { t_intrinsic = 30.0; r_out = 180.0; c_in = 12.0 }

  type result = {
    buffered_delay : float;
    unbuffered_delay : float;
    n_buffers : int;
    driver_load : float;
  }

  (* A DP option: subtree seen from the current point upward. *)
  type option_ = { cap : float; delay : float; buffers : int }

  (* Pareto prune: sort by cap; keep strictly improving delay. *)
  let prune options =
    let sorted = List.sort (fun a b -> compare (a.cap, a.delay) (b.cap, b.delay)) options in
    let rec go best_delay = function
      | [] -> []
      | o :: rest ->
          if o.delay < best_delay -. 1e-12 then o :: go o.delay rest else go best_delay rest
    in
    go infinity sorted

  let optimize ?(buffer = default_buffer) ?(segment = 200.0) ?driver_r tech tree =
    if segment <= 0.0 then invalid_arg "Buffering.optimize: non-positive segment";
    let driver_r = Option.value driver_r ~default:buffer.r_out in
    let r = tech.Rc_tech.Tech.r_wire and c = tech.Rc_tech.Tech.c_wire in
    (* delay of a wire piece of length l driving downstream cap cd (ps) *)
    let wire_delay l cd = (r *. l *. ((0.5 *. c *. l) +. cd)) /. 1000.0 in
    let add_buffer o =
      {
        cap = buffer.c_in;
        delay = o.delay +. buffer.t_intrinsic +. (buffer.r_out *. o.cap /. 1000.0);
        buffers = o.buffers + 1;
      }
    in
    let with_buffer_choice options =
      prune (options @ List.map add_buffer options)
    in
    (* push options up through a wire, subdividing into candidate points *)
    let rec up_wire length options =
      if length <= 0.0 then options
      else begin
        let piece = Float.min segment length in
        let stepped =
          List.map
            (fun o -> { o with cap = o.cap +. (c *. piece); delay = o.delay +. wire_delay piece o.cap })
            options
        in
        up_wire (length -. piece) (with_buffer_choice stepped)
      end
    in
    let rec solve ?(allow_buffers = true) = function
      | Sink { cap; _ } -> [ { cap; delay = 0.0; buffers = 0 } ]
      | Wire { length; child } ->
          let below = solve ~allow_buffers child in
          if allow_buffers then up_wire length (with_buffer_choice below)
          else
            List.map
              (fun o ->
                { o with cap = o.cap +. (c *. length); delay = o.delay +. wire_delay length o.cap })
              below
      | Branch (a, b) ->
          let oa = solve ~allow_buffers a and ob = solve ~allow_buffers b in
          prune
            (List.concat_map
               (fun x ->
                 List.map
                   (fun y ->
                     {
                       cap = x.cap +. y.cap;
                       delay = Float.max x.delay y.delay;
                       buffers = x.buffers + y.buffers;
                     })
                   ob)
               oa)
    in
    let finish options =
      List.fold_left
        (fun (bd, bo) o ->
          let total = o.delay +. (driver_r *. o.cap /. 1000.0) in
          if total < bd then (total, Some o) else (bd, bo))
        (infinity, None) options
    in
    let buffered = solve tree in
    let unbuffered = solve ~allow_buffers:false tree in
    match (finish buffered, finish unbuffered) with
    | (bd, Some bo), (ud, Some _) ->
        {
          buffered_delay = bd;
          unbuffered_delay = ud;
          n_buffers = bo.buffers;
          driver_load = bo.cap;
        }
    | _ -> invalid_arg "Buffering.optimize: empty tree"

  let two_pin ~length ~load = Wire { length; child = Sink { cap = load; tag = 0 } }
end

(* ---- netlist interchange partners ---------------------------------------- *)

(* The flow writes the .net/.pl interchange files (Serialize) and reads
   ISCAS89 .bench (Bench_format), never the reverse.  The missing halves
   live here so that round trips can check the halves the flow keeps:
   parse what Serialize wrote, and write a netlist as .bench for
   Bench_format to parse back. *)

type parse_state = {
  mutable name : string option;
  mutable chip : Rc_geom.Rect.t option;
  mutable kinds : (int * Netlist.kind) list;
  mutable pads : (int * Rc_geom.Point.t) list;
  mutable nets : Netlist.net list;
}

let net_of_string text =
  let st = { name = None; chip = None; kinds = []; pads = []; nets = [] } in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let exception Fail of string in
  try
    String.split_on_char '\n' text
    |> List.iteri (fun idx line ->
           let lineno = idx + 1 in
           let line = String.trim line in
           if line = "" || line.[0] = '#' then ()
           else
             let fields =
               String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
             in
             let fail msg = raise (Fail (Printf.sprintf "line %d: %s" lineno msg)) in
             let int_of s =
               match int_of_string_opt s with Some v -> v | None -> fail ("bad integer " ^ s)
             in
             let float_of s =
               match float_of_string_opt s with Some v -> v | None -> fail ("bad number " ^ s)
             in
             match fields with
             | [ "circuit"; n ] -> st.name <- Some n
             | [ "chip"; a; b; c; d ] ->
                 st.chip <-
                   Some
                     (Rc_geom.Rect.make ~xmin:(float_of a) ~ymin:(float_of b) ~xmax:(float_of c)
                        ~ymax:(float_of d))
             | [ "cell"; id; "logic" ] -> st.kinds <- (int_of id, Netlist.Logic) :: st.kinds
             | [ "cell"; id; "ff" ] -> st.kinds <- (int_of id, Netlist.Flipflop) :: st.kinds
             | [ "pad"; id; dir; x; y ] ->
                 let kind =
                   match dir with
                   | "in" -> Netlist.Input_pad
                   | "out" -> Netlist.Output_pad
                   | _ -> fail ("bad pad direction " ^ dir)
                 in
                 let id = int_of id in
                 st.kinds <- (id, kind) :: st.kinds;
                 st.pads <- (id, Rc_geom.Point.make (float_of x) (float_of y)) :: st.pads
             | "net" :: driver :: (_ :: _ as sinks) ->
                 st.nets <-
                   {
                     Netlist.driver = int_of driver;
                     sinks = Array.of_list (List.map int_of sinks);
                   }
                   :: st.nets
             | directive :: _ -> fail ("unknown or malformed directive " ^ directive)
             | [] -> ());
    match (st.name, st.chip) with
    | None, _ -> err 0 "missing circuit directive"
    | _, None -> err 0 "missing chip directive"
    | Some name, Some chip ->
        let n =
          List.fold_left (fun acc (id, _) -> max acc (id + 1)) 0 st.kinds
        in
        if List.length st.kinds <> n then Error "cell ids are not contiguous from 0"
        else begin
          let kinds = Array.make n Netlist.Logic in
          let seen = Array.make n false in
          List.iter
            (fun (id, k) ->
              if id < 0 || id >= n then raise (Fail "cell id out of range");
              if seen.(id) then raise (Fail (Printf.sprintf "duplicate cell id %d" id));
              seen.(id) <- true;
              kinds.(id) <- k)
            st.kinds;
          match
            Netlist.make ~name ~kinds ~nets:(Array.of_list (List.rev st.nets))
              ~pad_positions:st.pads
          with
          | nl -> Ok (chip, nl)
          | exception Invalid_argument m -> Error m
        end
  with Fail m -> Error m

let placement_of_string ~n_cells text =
  let out = Array.make n_cells Rc_geom.Point.zero in
  let seen = Array.make n_cells false in
  let exception Fail of string in
  try
    String.split_on_char '\n' text
    |> List.iteri (fun idx line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then ()
           else
             match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
             | [ id; x; y ] -> (
                 match (int_of_string_opt id, float_of_string_opt x, float_of_string_opt y) with
                 | Some id, Some x, Some y when id >= 0 && id < n_cells ->
                     out.(id) <- Rc_geom.Point.make x y;
                     seen.(id) <- true
                 | _ -> raise (Fail (Printf.sprintf "line %d: malformed placement" (idx + 1))))
             | _ -> raise (Fail (Printf.sprintf "line %d: malformed placement" (idx + 1))));
    if Array.for_all Fun.id seen then Ok out
    else Error "placement is missing cells"
  with Fail m -> Error m

(* logic cells as generic AND; pad positions are not representable in
   .bench and are dropped *)
let bench_to_string netlist =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "# %s\n" (Netlist.name netlist));
  let sig_of c = Printf.sprintf "G%d" c in
  let n = Netlist.n_cells netlist in
  for c = 0 to n - 1 do
    if Netlist.kind netlist c = Netlist.Input_pad then
      Buffer.add_string b (Printf.sprintf "INPUT(%s)\n" (sig_of c))
  done;
  for c = 0 to n - 1 do
    if Netlist.kind netlist c = Netlist.Output_pad then begin
      match Netlist.fanin_nets netlist c with
      | ni :: _ -> Buffer.add_string b
          (Printf.sprintf "OUTPUT(%s)\n" (sig_of (Netlist.net netlist ni).Netlist.driver))
      | [] -> ()
    end
  done;
  for c = 0 to n - 1 do
    let fanins =
      List.map (fun ni -> sig_of (Netlist.net netlist ni).Netlist.driver)
        (List.rev (Netlist.fanin_nets netlist c))
    in
    match Netlist.kind netlist c with
    | Netlist.Logic when fanins <> [] ->
        Buffer.add_string b
          (Printf.sprintf "%s = AND(%s)\n" (sig_of c) (String.concat ", " fanins))
    | Netlist.Flipflop when fanins <> [] ->
        Buffer.add_string b
          (Printf.sprintf "%s = DFF(%s)\n" (sig_of c) (String.concat ", " fanins))
    | _ -> ()
  done;
  Buffer.contents b
