open Rc_rotary

type t = {
  ring_of_ff : int array;
  taps : Tapping.tap array;
  total_cost : float;
  loads : float array;
  max_load : float;
}

let load_of_tap (tech : Rc_tech.Tech.t) (tap : Tapping.tap) =
  (tech.Rc_tech.Tech.c_wire *. tap.Tapping.wirelength) +. tech.Rc_tech.Tech.c_ff

(* same expression over the pool's stored wirelength *)
let load_of_wl (tech : Rc_tech.Tech.t) wl =
  (tech.Rc_tech.Tech.c_wire *. wl) +. tech.Rc_tech.Tech.c_ff

let m_candidate_solves = Rc_obs.Metrics.counter "assign.candidate_solves"
let m_widen_retries = Rc_obs.Metrics.counter "assign.netflow.widen_retries"
let m_assignments = Rc_obs.Metrics.counter "assign.assignments"

(* the four Eq. 1 cases, counted over each *final* assignment's taps *)
let m_case1 = Rc_obs.Metrics.counter "assign.tap.case1_period_shift"
let m_case2 = Rc_obs.Metrics.counter "assign.tap.case2_two_root"
let m_case3 = Rc_obs.Metrics.counter "assign.tap.case3_tangent"
let m_case4 = Rc_obs.Metrics.counter "assign.tap.case4_snaked"

let count_tap_cases taps ff_positions =
  Array.iteri
    (fun i tap ->
      Rc_obs.Metrics.incr
        (match Tapping.case_of tap ~ff:ff_positions.(i) with
        | Tapping.Period_shift -> m_case1
        | Tapping.Two_root -> m_case2
        | Tapping.Tangent -> m_case3
        | Tapping.Snaked -> m_case4))
    taps

let check_inputs ~fn ~candidates arr ff_positions targets =
  if candidates < 1 then invalid_arg (fn ^ ": candidates must be at least 1");
  if Ring_array.n_rings arr = 0 then invalid_arg "Assign: empty ring array";
  if Array.length ff_positions <> Array.length targets then
    invalid_arg "Assign: positions/targets size mismatch"

(* --- Flat candidate pool ------------------------------------------ *)

type fvec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* All (ff, candidate-ring) Eq. 1 solves of one assignment call as a
   structure of arrays: slot [i * stride + q] holds flip-flop [i]'s
   [q]-th candidate, in [Ring_array.rings_near] order.  Tap fields are
   spread across parallel Bigarrays (positions/arcs/costs as unboxed
   float64, ring ids and packed case tags as ints) so the hot
   enumeration loops stream flat memory instead of chasing per-FF
   record arrays; {!pool_tap} reconstructs the exact [Tapping.tap] on
   demand. *)
type pool = {
  n_ffs : int;
  stride : int;  (* the call's candidate count; per-FF counts may be less *)
  p_count : int array;  (* candidates actually present per flip-flop *)
  p_ring : ivec;
  p_x : fvec;
  p_y : fvec;
  p_arc : fvec;
  p_cost : fvec;  (* tap wirelength — the assignment cost *)
  p_tag : ivec;  (* (periods_shifted lsl 2) lor snaked lor conductor *)
}

let fvec n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let ivec n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let alloc_pool n_ffs stride =
  let slots = n_ffs * stride in
  {
    n_ffs;
    stride;
    p_count = Array.make n_ffs 0;
    p_ring = ivec slots;
    p_x = fvec slots;
    p_y = fvec slots;
    p_arc = fvec slots;
    p_cost = fvec slots;
    p_tag = ivec slots;
  }

let pool_count pl i = pl.p_count.(i)
let pool_ring pl i q = pl.p_ring.{(i * pl.stride) + q}
let pool_cost pl i q = pl.p_cost.{(i * pl.stride) + q}

let pool_tap pl i q =
  let o = (i * pl.stride) + q in
  let tag = pl.p_tag.{o} in
  {
    Tapping.ring = pl.p_ring.{o};
    point = { Rc_geom.Point.x = pl.p_x.{o}; y = pl.p_y.{o} };
    arc = pl.p_arc.{o};
    conductor = (if tag land 1 = 1 then Ring.Inner else Ring.Outer);
    wirelength = pl.p_cost.{o};
    snaked = tag land 2 <> 0;
    periods_shifted = tag asr 2;
  }

(* solve one flip-flop's candidates into its pool segment; returns the
   candidate count (= the Eq. 1 solves charged to assign.candidate_solves) *)
let fill_ff pl tech arr i p target =
  let rings = Ring_array.rings_near arr p pl.stride in
  let base = i * pl.stride in
  let q = ref 0 in
  List.iter
    (fun rj ->
      let tap = Tapping.solve tech (Ring_array.ring arr rj) ~ff:p ~target in
      let o = base + !q in
      pl.p_ring.{o} <- rj;
      pl.p_x.{o} <- tap.Tapping.point.Rc_geom.Point.x;
      pl.p_y.{o} <- tap.Tapping.point.Rc_geom.Point.y;
      pl.p_arc.{o} <- tap.Tapping.arc;
      pl.p_cost.{o} <- tap.Tapping.wirelength;
      pl.p_tag.{o} <-
        (tap.Tapping.periods_shifted lsl 2)
        lor (if tap.Tapping.snaked then 2 else 0)
        lor (match tap.Tapping.conductor with Ring.Inner -> 1 | Ring.Outer -> 0);
      incr q)
    rings;
  pl.p_count.(i) <- !q;
  !q

(* below ~64 flip-flops a solve is cheaper than waking the pool *)
let par_cutoff = 64

(* The per-FF solves are independent — the flow's second hot kernel —
   and fan out across the domain pool in one batch; every write lands in
   flip-flop [i]'s own pool segment, so the result is identical for any
   job count. *)
let candidate_taps_batch tech arr ~ff_positions ~targets ~candidates =
  let n = Array.length ff_positions in
  let pl = alloc_pool n candidates in
  Rc_par.Pool.for_ ~min_items:par_cutoff n (fun i ->
      let solves = fill_ff pl tech arr i ff_positions.(i) targets.(i) in
      Rc_obs.Metrics.add m_candidate_solves solves);
  pl

(* --- Candidate-tap cache + cached assignment solver ---------------- *)

let m_tap_hits = Rc_obs.Metrics.counter "assign.tapcache.hits"
let m_tap_misses = Rc_obs.Metrics.counter "assign.tapcache.misses"
let m_tap_invalidations = Rc_obs.Metrics.counter "assign.tapcache.invalidations"

type ilp_stats = {
  lp_optimum : float;
  ilp_objective : float;
  integrality_gap : float;
  lp_iterations : int;
  elapsed_s : float;
}

(* The cache *is* a retained pool: a slot segment is reused only when
   the flip-flop's position, delay target, and the call's candidate
   count match the cached solve bit-for-bit ([c_key] is a quantized
   fingerprint for cheap rejection; the exact fields are the authority),
   so a cached segment is indistinguishable from a fresh solve.
   [c_valid] survives pool reallocation (a candidate-count change) to
   keep the hit/miss/invalidation accounting identical to a slot cache:
   a previously-cached flip-flop that must re-solve counts as an
   invalidation, a never-cached one as a miss. *)
type cache = {
  mutable c_pool : pool option;
  mutable c_valid : bool array;
  mutable c_key : int array;
  mutable c_x : float array;
  mutable c_y : float array;
  mutable c_t : float array;
  mutable c_arr : Ring_array.t option;  (* ring array the pool refers to *)
  mutable solver : (Rc_netflow.Assignment.solver * int * int array) option;
      (* solver, n_items, capacities it was built for *)
  mutable sharded : (int * int array * Tapping.tap array * int array) option;
      (* the last sharded result: candidate count, capacities, taps,
         ring_of_ff (copies the caller never sees) *)
  mutable ilp : (int * Tapping.tap array * int array * ilp_stats) option;
      (* the last [by_ilp] result: candidate count, taps, ring_of_ff
         (copies) and its stats *)
}

let make_cache () =
  {
    c_pool = None;
    c_valid = [||];
    c_key = [||];
    c_x = [||];
    c_y = [||];
    c_t = [||];
    c_arr = None;
    solver = None;
    sharded = None;
    ilp = None;
  }

let cache_invalidate cc ~ff =
  if ff >= 0 && ff < Array.length cc.c_valid then cc.c_valid.(ff) <- false

let cache_reset cc =
  cc.c_pool <- None;
  cc.c_valid <- [||];
  cc.c_key <- [||];
  cc.c_x <- [||];
  cc.c_y <- [||];
  cc.c_t <- [||];
  cc.c_arr <- None;
  cc.solver <- None;
  cc.sharded <- None;
  cc.ilp <- None

let quantized_key (p : Rc_geom.Point.t) target k =
  let q v = int_of_float (v *. 1024.0) in
  (q p.Rc_geom.Point.x * 31) + (q p.Rc_geom.Point.y * 17) + (q target * 7) + k

let candidate_taps_cached cc tech arr ~ff_positions ~targets ~candidates =
  let n = Array.length ff_positions in
  let fresh = match cc.c_arr with Some a -> a != arr | None -> true in
  if fresh || Array.length cc.c_valid <> n then begin
    cc.c_valid <- Array.make n false;
    cc.c_key <- Array.make n 0;
    cc.c_x <- Array.make n 0.0;
    cc.c_y <- Array.make n 0.0;
    cc.c_t <- Array.make n 0.0;
    cc.c_pool <- None;
    cc.c_arr <- Some arr
  end;
  let pl, retained =
    match cc.c_pool with
    | Some pl when pl.stride = candidates && pl.n_ffs = n -> (pl, true)
    | _ -> (alloc_pool n candidates, false)
  in
  let resolved = Atomic.make 0 in
  Rc_par.Pool.for_ ~min_items:par_cutoff n (fun i ->
      let p = ff_positions.(i) and target = targets.(i) in
      let key = quantized_key p target candidates in
      if
        retained && cc.c_valid.(i) && cc.c_key.(i) = key
        && cc.c_x.(i) = p.Rc_geom.Point.x
        && cc.c_y.(i) = p.Rc_geom.Point.y
        && cc.c_t.(i) = target
      then Rc_obs.Metrics.incr m_tap_hits
      else begin
        Rc_obs.Metrics.incr
          (if cc.c_valid.(i) then m_tap_invalidations else m_tap_misses);
        Atomic.incr resolved;
        let solves = fill_ff pl tech arr i p target in
        Rc_obs.Metrics.add m_candidate_solves solves;
        cc.c_valid.(i) <- true;
        cc.c_key.(i) <- key;
        cc.c_x.(i) <- p.Rc_geom.Point.x;
        cc.c_y.(i) <- p.Rc_geom.Point.y;
        cc.c_t.(i) <- target
      end);
  cc.c_pool <- Some pl;
  let resolved = Atomic.get resolved in
  (* a replayed result is valid only for the pool it was solved on *)
  if resolved > 0 then begin
    cc.sharded <- None;
    cc.ilp <- None
  end;
  (pl, resolved)

let tap_for pl i rj =
  let m = pool_count pl i in
  let rec find q =
    if q >= m then raise Not_found
    else if pool_ring pl i q = rj then pool_tap pl i q
    else find (q + 1)
  in
  find 0

let finish tech arr ~ff_positions taps ring_of_ff =
  let loads = Array.make (Ring_array.n_rings arr) 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i (tap : Tapping.tap) ->
      total := !total +. tap.Tapping.wirelength;
      loads.(ring_of_ff.(i)) <- loads.(ring_of_ff.(i)) +. load_of_tap tech tap)
    taps;
  Rc_obs.Metrics.incr m_assignments;
  if Rc_obs.Metrics.enabled () then count_tap_cases taps ff_positions;
  {
    ring_of_ff;
    taps;
    total_cost = !total;
    loads;
    max_load = Array.fold_left Float.max 0.0 loads;
  }

(* One-flip-flop reassignment for the ECO edit path: re-solve only the
   retargeted flip-flop's tap and rebuild the aggregate bookkeeping
   (loads, total cost) over the otherwise-verbatim tap array. *)
let retarget tech arr t ~ff_positions ~ff ~ring ~target =
  let n = Array.length t.ring_of_ff in
  if ff < 0 || ff >= n then invalid_arg "Assign.retarget: flip-flop out of range";
  if ring < 0 || ring >= Ring_array.n_rings arr then
    invalid_arg "Assign.retarget: ring out of range";
  let tap = Tapping.solve tech (Ring_array.ring arr ring) ~ff:ff_positions.(ff) ~target in
  Rc_obs.Metrics.incr m_candidate_solves;
  let taps = Array.copy t.taps in
  let ring_of_ff = Array.copy t.ring_of_ff in
  taps.(ff) <- tap;
  ring_of_ff.(ff) <- ring;
  finish tech arr ~ff_positions taps ring_of_ff

(* --- Sharded netflow at scale ------------------------------------- *)

(* Above this many flip-flops the single global min-cost flow is
   replaced by one flow per ring-neighborhood shard; every paper
   circuit sits far under it, so the exact global solve (and its
   replay) is untouched. *)
let shard_threshold = 4096

let m_shard_solves = Rc_obs.Metrics.counter "assign.netflow.shard_solves"
let m_shard_repairs = Rc_obs.Metrics.counter "assign.netflow.shard_repairs"

(* Partition the g×g ring grid into contiguous square tiles; each
   flip-flop belongs to the tile of its nearest candidate ring and only
   keeps candidates inside that tile, so the bipartite graph splits
   into independent shards solved as ordered [Pool.map] sub-jobs
   (deterministic merge by flip-flop index, any job count).  Shards are
   capacity-sliced from the global capacities; flip-flops a shard
   cannot place (local capacity exhausted) go through a sequential
   repair pass over the remaining global capacity (cheapest pooled
   candidate, else nearest ring with room), so the result is always a
   complete assignment. *)
let solve_sharded tech arr ~capacities pl ~ff_positions ~targets =
  let n = pl.n_ffs in
  let g = Ring_array.grid arr in
  let nr = Ring_array.n_rings arr in
  let ts = max 4 (g / 8) in
  let tiles_x = (g + ts - 1) / ts in
  let n_shards = tiles_x * tiles_x in
  let shard_of_ring rj = (rj / g / ts * tiles_x) + (rj mod g / ts) in
  let shard_of_ff = Array.init n (fun i -> shard_of_ring (pool_ring pl i 0)) in
  (* flip-flops of each shard, bucketed in ascending index order *)
  let foff = Array.make (n_shards + 1) 0 in
  for i = 0 to n - 1 do
    foff.(shard_of_ff.(i) + 1) <- foff.(shard_of_ff.(i) + 1) + 1
  done;
  for s = 1 to n_shards do
    foff.(s) <- foff.(s) + foff.(s - 1)
  done;
  let fmem = Array.make n 0 in
  let cursor = Array.copy foff in
  for i = 0 to n - 1 do
    let s = shard_of_ff.(i) in
    fmem.(cursor.(s)) <- i;
    cursor.(s) <- cursor.(s) + 1
  done;
  (* rings of each shard and their shard-local indices *)
  let roff = Array.make (n_shards + 1) 0 in
  for rj = 0 to nr - 1 do
    roff.(shard_of_ring rj + 1) <- roff.(shard_of_ring rj + 1) + 1
  done;
  for s = 1 to n_shards do
    roff.(s) <- roff.(s) + roff.(s - 1)
  done;
  let rmem = Array.make nr 0 and rloc = Array.make nr 0 in
  let rcursor = Array.copy roff in
  for rj = 0 to nr - 1 do
    let s = shard_of_ring rj in
    rmem.(rcursor.(s)) <- rj;
    rloc.(rj) <- rcursor.(s) - roff.(s);
    rcursor.(s) <- rcursor.(s) + 1
  done;
  let solve_one s =
    let n_items = foff.(s + 1) - foff.(s) in
    if n_items = 0 then [||]
    else begin
      let n_bins = roff.(s + 1) - roff.(s) in
      let caps = Array.init n_bins (fun b -> capacities.(rmem.(roff.(s) + b))) in
      (* candidate arcs in (ff, nearest-ring) order, built back to front *)
      let cands = ref [] in
      for idx = n_items - 1 downto 0 do
        let i = fmem.(foff.(s) + idx) in
        for q = pool_count pl i - 1 downto 0 do
          let rj = pool_ring pl i q in
          if shard_of_ring rj = s then
            cands :=
              { Rc_netflow.Assignment.item = idx; bin = rloc.(rj); cost = pool_cost pl i q }
              :: !cands
        done
      done;
      let r =
        Rc_netflow.Assignment.solve ~n_items ~n_bins ~capacities:caps !cands
      in
      Rc_obs.Metrics.incr m_shard_solves;
      Array.map (fun b -> if b < 0 then -1 else rmem.(roff.(s) + b)) r.Rc_netflow.Assignment.assignment
    end
  in
  let shard_rings =
    Rc_par.Pool.map solve_one (Array.init n_shards Fun.id)
  in
  let ring_of_ff = Array.make n (-1) in
  Array.iteri
    (fun s rings ->
      Array.iteri (fun idx rj -> ring_of_ff.(fmem.(foff.(s) + idx)) <- rj) rings)
    shard_rings;
  (* sequential repair over the remaining global capacity *)
  let cap_left = Array.copy capacities in
  for i = 0 to n - 1 do
    let rj = ring_of_ff.(i) in
    if rj >= 0 then cap_left.(rj) <- cap_left.(rj) - 1
  done;
  let repair_taps = Hashtbl.create 16 in
  let centres = Array.init nr (fun rj -> Rc_geom.Rect.center (Ring_array.ring arr rj).Ring.rect) in
  for i = 0 to n - 1 do
    if ring_of_ff.(i) < 0 then begin
      Rc_obs.Metrics.incr m_shard_repairs;
      (* cheapest pooled candidate with capacity left ... *)
      let best = ref (-1) and best_cost = ref infinity in
      for q = 0 to pool_count pl i - 1 do
        let rj = pool_ring pl i q in
        if cap_left.(rj) > 0 && pool_cost pl i q < !best_cost then begin
          best := q;
          best_cost := pool_cost pl i q
        end
      done;
      if !best >= 0 then begin
        let rj = pool_ring pl i !best in
        ring_of_ff.(i) <- rj;
        cap_left.(rj) <- cap_left.(rj) - 1
      end
      else begin
        (* ... else the nearest ring with capacity left: the least
           (Manhattan distance to the ring centre, ring id), the order
           [Ring_array.rings_near] sorts by (total capacity covers n, so
           one always has room) *)
        let p = ff_positions.(i) in
        let best = ref (-1) and best_d = ref infinity in
        for rj = 0 to nr - 1 do
          if cap_left.(rj) > 0 then begin
            let d = Rc_geom.Point.manhattan centres.(rj) p in
            if !best < 0 || Float.compare d !best_d < 0 then begin
              best := rj;
              best_d := d
            end
          end
        done;
        let rj = !best in
        if rj < 0 then invalid_arg "Assign.by_netflow: unassignable flip-flop";
        let tap = Tapping.solve tech (Ring_array.ring arr rj) ~ff:p ~target:targets.(i) in
        Rc_obs.Metrics.incr m_candidate_solves;
        ring_of_ff.(i) <- rj;
        cap_left.(rj) <- cap_left.(rj) - 1;
        Hashtbl.replace repair_taps i tap
      end
    end
  done;
  let taps =
    Array.init n (fun i ->
        match Hashtbl.find_opt repair_taps i with
        | Some tap -> tap
        | None -> tap_for pl i ring_of_ff.(i))
  in
  finish tech arr ~ff_positions taps ring_of_ff

let by_netflow ?(candidates = 6) ?capacities ?cache tech arr ~ff_positions ~targets =
  check_inputs ~fn:"Assign.by_netflow" ~candidates arr ff_positions targets;
  let n = Array.length ff_positions in
  let capacities =
    match capacities with
    | Some c ->
        if Array.length c <> Ring_array.n_rings arr then
          invalid_arg "Assign.by_netflow: capacities size mismatch";
        c
    | None -> Ring_array.default_capacities arr ~n_ffs:n ~slack:1.3
  in
  if Array.fold_left ( + ) 0 capacities < n then
    invalid_arg "Assign.by_netflow: total capacity below flip-flop count";
  let solve_cands cands =
    match cache with
    | None ->
        Rc_netflow.Assignment.solve ~n_items:n ~n_bins:(Ring_array.n_rings arr) ~capacities
          cands
    | Some cc ->
        let solver =
          match cc.solver with
          | Some (s, sn, scaps) when sn = n && scaps = capacities -> s
          | _ ->
              let s =
                Rc_netflow.Assignment.make_solver ~n_items:n
                  ~n_bins:(Ring_array.n_rings arr) ~capacities
              in
              cc.solver <- Some (s, n, Array.copy capacities);
              s
        in
        Rc_netflow.Assignment.solve_with solver cands
  in
  let rec attempt k =
    let pl, resolved =
      match cache with
      | None -> (candidate_taps_batch tech arr ~ff_positions ~targets ~candidates:k, n)
      | Some cc -> candidate_taps_cached cc tech arr ~ff_positions ~targets ~candidates:k
    in
    if n >= shard_threshold then begin
      (* the sharded path replaces both the global solve and its
         replay; the widen/repair loop lives inside [solve_sharded].
         A cached call whose every flip-flop hit the tap cache has the
         previous call's pool, positions and targets bit for bit; with
         equal capacities and candidate count the shards would re-solve
         to the previous result, so that result is replayed instead. *)
      match cache with
      | Some { sharded = Some (sk, scaps, taps, rings); _ }
        when resolved = 0 && sk = k && scaps = capacities ->
          finish tech arr ~ff_positions (Array.copy taps) (Array.copy rings)
      | _ ->
          let a = solve_sharded tech arr ~capacities pl ~ff_positions ~targets in
          Option.iter
            (fun cc ->
              cc.sharded <-
                Some (k, Array.copy capacities, Array.copy a.taps, Array.copy a.ring_of_ff))
            cache;
          a
    end
    else begin
    (* candidate arcs in (ff, nearest-ring) order, built back to front *)
    let cands = ref [] in
    for i = n - 1 downto 0 do
      for q = pool_count pl i - 1 downto 0 do
        cands :=
          {
            Rc_netflow.Assignment.item = i;
            bin = pool_ring pl i q;
            cost = pool_cost pl i q;
          }
          :: !cands
      done
    done;
    let r = solve_cands !cands in
    if r.Rc_netflow.Assignment.assigned < n && k < Ring_array.n_rings arr then begin
      Rc_obs.Metrics.incr m_widen_retries;
      attempt (min (Ring_array.n_rings arr) (2 * k))
    end
    else begin
      let assignment = r.Rc_netflow.Assignment.assignment in
      let taps =
        Array.init n (fun i ->
            let rj = assignment.(i) in
            if rj < 0 then invalid_arg "Assign.by_netflow: unassignable flip-flop"
            else tap_for pl i rj)
      in
      finish tech arr ~ff_positions taps assignment
    end
    end
  in
  attempt candidates

(* Build the Eq. 3 min-max ILP over the candidate arcs. Returns the LP
   problem, the (ff, ring, var, load) rows and the cap variable.
   Explicit loops keep the LP column order identical to the candidate
   enumeration order. *)
let build_minmax_problem tech arr pl =
  let open Rc_lp in
  let n = pl.n_ffs in
  let p = Problem.create () in
  let cap_var = Problem.add_var ~lo:0.0 ~obj:1.0 p in
  let triples = Array.make n [||] in
  for i = 0 to n - 1 do
    let m = pool_count pl i in
    let row = Array.make m (0, 0, 0, 0.0) in
    for q = 0 to m - 1 do
      let v = Problem.add_var ~lo:0.0 ~hi:1.0 p in
      row.(q) <- (i, pool_ring pl i q, v, load_of_wl tech (pool_cost pl i q))
    done;
    triples.(i) <- row
  done;
  (* each flip-flop on exactly one ring *)
  Array.iter
    (fun row ->
      ignore
        (Problem.add_row p
           (Array.to_list (Array.map (fun (_, _, v, _) -> (v, 1.0)) row))
           Problem.Eq 1.0))
    triples;
  (* per-ring load <= cap *)
  let per_ring = Array.make (Ring_array.n_rings arr) [] in
  Array.iter
    (fun row ->
      Array.iter (fun (_, rj, v, load) -> per_ring.(rj) <- (v, load) :: per_ring.(rj)) row)
    triples;
  Array.iter
    (fun entries ->
      if entries <> [] then
        ignore
          (Problem.add_row p
             ((cap_var, -1.0) :: List.map (fun (v, load) -> (v, load)) entries)
             Problem.Le 0.0))
    per_ring;
  (p, triples, cap_var)

let assignment_from_bins tech arr ~ff_positions pl bins =
  let n = pl.n_ffs in
  let taps = Array.init n (fun i -> tap_for pl i bins.(i)) in
  finish tech arr ~ff_positions taps (Array.copy bins)

(* The LP relaxation of Eq. 3 and the Fig. 5 rounding on one pool. *)
let solve_ilp tech arr ~ff_positions pl ~timer =
  let n = pl.n_ffs in
  let p, triples, _cap = build_minmax_problem tech arr pl in
  let sol = Rc_lp.Simplex.solve p in
  if sol.Rc_lp.Simplex.status <> Rc_lp.Simplex.Optimal then
    failwith "Assign.by_ilp: LP relaxation did not solve";
  let xlp =
    Array.to_list triples
    |> List.concat_map (fun row ->
           Array.to_list
             (Array.map (fun (i, rj, v, _) -> (i, rj, sol.Rc_lp.Simplex.x.(v))) row))
  in
  let bins = Rc_ilp.Rounding.greedy_round ~n_items:n xlp in
  let result = assignment_from_bins tech arr ~ff_positions pl bins in
  let stats =
    {
      lp_optimum = sol.Rc_lp.Simplex.objective;
      ilp_objective = result.max_load;
      integrality_gap =
        Rc_ilp.Rounding.integrality_gap ~ilp_objective:result.max_load
          ~lp_optimum:sol.Rc_lp.Simplex.objective;
      lp_iterations = sol.Rc_lp.Simplex.iterations;
      elapsed_s = Rc_util.Timer.elapsed_s timer;
    }
  in
  (result, stats)

let m_ilp_replays = Rc_obs.Metrics.counter "assign.ilp.replays"

let by_ilp ?(candidates = 6) ?cache tech arr ~ff_positions ~targets =
  check_inputs ~fn:"Assign.by_ilp" ~candidates arr ff_positions targets;
  let timer = Rc_util.Timer.start () in
  let pl, resolved =
    match cache with
    | None -> (candidate_taps_batch tech arr ~ff_positions ~targets ~candidates, -1)
    | Some cc -> candidate_taps_cached cc tech arr ~ff_positions ~targets ~candidates
  in
  match cache with
  | Some { ilp = Some (k, taps, rings, stats); _ } when resolved = 0 && k = candidates ->
      (* every flip-flop hit the tap cache: the LP and its rounding
         would re-solve to the previous result bit for bit *)
      Rc_obs.Metrics.incr m_ilp_replays;
      (finish tech arr ~ff_positions (Array.copy taps) (Array.copy rings), stats)
  | _ ->
      let result, stats = solve_ilp tech arr ~ff_positions pl ~timer in
      Option.iter
        (fun cc ->
          cc.ilp <- Some (candidates, Array.copy result.taps, Array.copy result.ring_of_ff, stats))
        cache;
      (result, stats)

type bb_stats = {
  bb_objective : float;
  bb_gap : float;
  proved_optimal : bool;
  bb_nodes : int;
  bb_elapsed_s : float;
}

let by_branch_bound ?(candidates = 6) ?limits tech arr ~ff_positions ~targets =
  check_inputs ~fn:"Assign.by_branch_bound" ~candidates arr ff_positions targets;
  let n = Array.length ff_positions in
  let pl = candidate_taps_batch tech arr ~ff_positions ~targets ~candidates in
  let p, triples, _cap = build_minmax_problem tech arr pl in
  let lp = Rc_lp.Simplex.solve p in
  let lp_opt =
    if lp.Rc_lp.Simplex.status = Rc_lp.Simplex.Optimal then lp.Rc_lp.Simplex.objective else nan
  in
  let int_vars =
    Array.to_list triples
    |> List.concat_map (fun row -> Array.to_list (Array.map (fun (_, _, v, _) -> v) row))
  in
  let out = Rc_ilp.Branch_bound.solve ?limits p ~integer_vars:int_vars in
  let stats ok obj =
    {
      bb_objective = obj;
      bb_gap = (if ok then obj /. lp_opt else nan);
      proved_optimal = out.Rc_ilp.Branch_bound.status = Rc_ilp.Branch_bound.Proven_optimal;
      bb_nodes = out.Rc_ilp.Branch_bound.nodes;
      bb_elapsed_s = out.Rc_ilp.Branch_bound.elapsed_s;
    }
  in
  match out.Rc_ilp.Branch_bound.status with
  | Rc_ilp.Branch_bound.Proven_optimal | Rc_ilp.Branch_bound.Feasible ->
      let bins = Array.make n (-1) in
      Array.iter
        (fun row ->
          Array.iter
            (fun (i, rj, v, _) -> if out.Rc_ilp.Branch_bound.x.(v) > 0.5 then bins.(i) <- rj)
            row)
        triples;
      if Array.exists (fun b -> b < 0) bins then (None, stats false infinity)
      else begin
        let result = assignment_from_bins tech arr ~ff_positions pl bins in
        (Some result, stats true result.max_load)
      end
  | _ -> (None, stats false infinity)
