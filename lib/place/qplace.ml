open Rc_geom
open Rc_netlist

type pseudo_net = { cell : int; anchor : Point.t; weight : float }

type result = {
  positions : Point.t array;
  hpwl : float;
  solver_iterations : int;
}

(* ---- quadratic system assembly ------------------------------------- *)

type system = { matrix : Rc_sparse.Csr.t; rhs_x : float array; rhs_y : float array }

let center_anchor_weight = 1e-6

(* growable parallel entry buffer feeding Csr.of_entries; pushes happen
   in the same program order the old code prepended triplets, so the
   assembled matrix is bit-identical to the of_triplets path *)
type ebuf = {
  mutable ei : int array;
  mutable ej : int array;
  mutable ev : float array;
  mutable en : int;
}

let ebuf_create () = { ei = Array.make 1024 0; ej = Array.make 1024 0; ev = Array.make 1024 0.0; en = 0 }

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
  let m = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then incr m
  done;
  let movable = Array.make !m 0 in
  let i = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then begin
      movable.(!i) <- c;
      index.(c) <- !i;
      incr i
    end
  done;
  (movable, index)

(* The net Laplacian of one flat placement call, assembled once.  A
   spreading round only adds anchor springs, which touch nothing but the
   diagonal and the right-hand side, so [system] derives each round's
   system from this one without re-assembling it.

   Bit-identity invariant.  A round's system equals, bit for bit, what
   [Csr.of_entries] assembles from the entries pushed in this order: the
   net entries (nets in id order, sinks in order), one center anchor per
   row, then the springs.  [of_entries] sums duplicates left to right
   over the entries last to first, and a right-hand side accumulates in
   push order.  So for row r:
   - diagonal = ((springs of r, last to first) + center anchor)
                + net contributions of r, last to first;
   - rhs = (pads, then the center anchor: the stored prefix)
           + springs of r, first to last;
   - off-diagonals come from nets alone and are final after the one
     assembly.
   Every diagonal includes the positive center anchor, so with
   non-negative spring weights none sums to zero and the stored pattern
   is the same in every round.  Change none of these orders: the flow
   digests depend on every bit. *)
type laplacian = {
  movable : int array;  (* movable cell ids *)
  index : int array;  (* cell id -> movable index or -1 *)
  base : Rc_sparse.Csr.t;  (* nets + center anchor: every diagonal stored *)
  dptr : int array;  (* row r's net diagonal contributions are *)
  dval : float array;  (* dval.(dptr.(r) .. dptr.(r + 1) - 1), in push order *)
  rhs_x0 : float array;  (* after the pads and the center anchor *)
  rhs_y0 : float array;
}

(* anchor springs in push order: spring k pulls movable row rows.(k)
   toward (px.(k), py.(k)) with weight w.(k) *)
type springs = { rows : int array; px : float array; py : float array; w : float array }

let laplacian netlist ~chip =
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
      let k = 1 + Array.length net.sinks in
      let w = 2.0 /. float_of_int k in
      Array.iter (fun s -> connect net.driver s w) net.sinks);
  let n_net = buf.en in
  (* regularization: tie every movable cell very weakly to die center *)
  let c = Rect.center chip in
  for i = 0 to m - 1 do
    add_fixed i center_anchor_weight c
  done;
  let base = Rc_sparse.Csr.of_entries ~rows:m ~cols:m ~len:buf.en buf.ei buf.ej buf.ev in
  (* bucket the net diagonal entries by row, keeping push order *)
  let dptr = Array.make (m + 1) 0 in
  for k = 0 to n_net - 1 do
    let i = buf.ei.(k) in
    if i = buf.ej.(k) then dptr.(i + 1) <- dptr.(i + 1) + 1
  done;
  for i = 1 to m do
    dptr.(i) <- dptr.(i) + dptr.(i - 1)
  done;
  let dval = Array.make dptr.(m) 0.0 and cursor = Array.sub dptr 0 m in
  for k = 0 to n_net - 1 do
    let i = buf.ei.(k) in
    if i = buf.ej.(k) then begin
      dval.(cursor.(i)) <- buf.ev.(k);
      cursor.(i) <- cursor.(i) + 1
    end
  done;
  { movable; index; base; dptr; dval; rhs_x0 = rhs_x; rhs_y0 = rhs_y }

(* the system with [springs] (segments in push order) folded in, in the
   orders the invariant above fixes *)
let system lap springs =
  let m = Array.length lap.movable in
  (* -0.0 is the exact additive identity: -0.0 +. w = w for every w *)
  let diag = Array.make m (-0.0) in
  List.iter
    (fun sp ->
      for k = Array.length sp.rows - 1 downto 0 do
        let r = sp.rows.(k) in
        diag.(r) <- diag.(r) +. sp.w.(k)
      done)
    (List.rev springs);
  for r = 0 to m - 1 do
    let acc = ref (diag.(r) +. center_anchor_weight) in
    for t = lap.dptr.(r + 1) - 1 downto lap.dptr.(r) do
      acc := !acc +. lap.dval.(t)
    done;
    diag.(r) <- !acc
  done;
  let rhs_x = Array.copy lap.rhs_x0 and rhs_y = Array.copy lap.rhs_y0 in
  List.iter
    (fun sp ->
      for k = 0 to Array.length sp.rows - 1 do
        let r = sp.rows.(k) and w = sp.w.(k) in
        rhs_x.(r) <- rhs_x.(r) +. (w *. sp.px.(k));
        rhs_y.(r) <- rhs_y.(r) +. (w *. sp.py.(k))
      done)
    springs;
  { matrix = Rc_sparse.Csr.with_diagonal lap.base diag; rhs_x; rhs_y }

(* one spring of weight [w] per movable row, row r toward (px.(r), py.(r)) *)
let row_springs px py w =
  let m = Array.length px in
  { rows = Array.init m Fun.id; px; py; w = Array.make m w }

let target_springs (targets : Point.t array) alpha =
  row_springs
    (Array.map (fun (p : Point.t) -> p.Point.x) targets)
    (Array.map (fun (p : Point.t) -> p.Point.y) targets)
    alpha

(* The x and y systems share the matrix but are otherwise independent —
   the flow's first hot kernel.  With jobs > 1 the two CG solves run on
   two domains (each on its own workspace); each solve is sequential
   internally, so the results are bit-identical to the one-domain path.
   Below ~512 unknowns one CG solve finishes faster than the pool
   region starts, so small systems stay in the calling domain. *)
let solve_system ?wsx ?wsy ?x0 ?y0 sys =
  let rx, ry =
    Rc_par.Pool.both
      ~parallel:(Array.length sys.rhs_x >= 512)
      (fun () -> Rc_sparse.Cg.solve ?ws:wsx ?x0 ~tol:1e-7 sys.matrix sys.rhs_x)
      (fun () -> Rc_sparse.Cg.solve ?ws:wsy ?x0:y0 ~tol:1e-7 sys.matrix sys.rhs_y)
  in
  (rx.Rc_sparse.Cg.x, ry.Rc_sparse.Cg.x, rx.Rc_sparse.Cg.iterations + ry.Rc_sparse.Cg.iterations)

let assemble_positions netlist index xs ys =
  let n = Netlist.n_cells netlist in
  Array.init n (fun c ->
      if index.(c) >= 0 then Point.make xs.(index.(c)) ys.(index.(c))
      else Netlist.pad_position netlist c)

(* ---- recursive-bisection spreading targets -------------------------- *)

(* Calls with at least this many cells split the top [spread_levels]
   levels of the bisection in the calling domain and run the
   2^spread_levels subtrees on the pool; below it a subtree's work does
   not amortize a pool sub-job, and the whole recursion runs in the
   calling domain. *)
let spread_par_cutoff = 4096
let spread_levels = 4

(* Each bisection node orders its cells by one coordinate and hands
   each half to a child.  The order must be the permutation the stdlib
   heap sort ([Array.sort]) leaves on the node's input order, which the
   parent's order fixes; with equal keys that permutation depends on the
   input order, with distinct keys it is the unique sorted order.

   So besides [idx] (every node's cells in its input order, as the
   parent left them) the cells are kept sorted by x in [sx] and by y in
   [sy]: sorted once at the root, then stably partitioned into the two
   halves at every node, so each node's range of [sx]/[sy] holds its own
   cells, sorted.  A node whose keys are distinct takes its order from
   there in linear time; a node with two equal keys, or any call with a
   nan key, heap-sorts its input order.  That sort's
   keys are typed [float array] and compared with [Float.compare],
   which orders floats like the polymorphic [compare] (nan least and
   equal to itself, -0.0 = 0.0): the same comparisons, the same
   permutation, no boxed keys.

   Parallel subtrees.  A node over slots [lo, hi) writes only that range
   of [idx], [sx], [sy] and [tmp], and only its own cells' [in_left]
   bytes and [targets], so disjoint subtrees may run on different
   domains.  The jitter must stay the sequential stream: leaves are
   visited left to right and draw two floats per slot, so slot k takes
   draws 2k (x) and 2k+1 (y) of the call.  A subtree starting at slot
   [lo] therefore draws from a generator [2·lo] draws ahead
   ([Rng.ahead]), and the caller's generator skips the call's [2·m]
   draws at the end. *)
let spreading_targets rng chip m (xs : float array) (ys : float array) =
  let targets = Array.make m Point.zero in
  (* indices into the movable arrays *)
  let idx = Array.init m Fun.id in
  let parallel = m >= spread_par_cutoff in
  let presorted = not (Array.exists Float.is_nan xs || Array.exists Float.is_nan ys) in
  let sorted_by keys =
    let a = Array.init m Fun.id in
    Array.stable_sort (fun a b -> Float.compare keys.(a) keys.(b)) a;
    a
  in
  let sx, sy =
    if presorted then Rc_par.Pool.both ~parallel (fun () -> sorted_by xs) (fun () -> sorted_by ys)
    else ([||], [||])
  in
  let in_left = Bytes.create m and tmp = Array.make m 0 in
  let partition a lo mid hi =
    let l = ref lo and r = ref mid in
    for k = lo to hi - 1 do
      let c = a.(k) in
      if Bytes.get in_left c = 'l' then begin
        tmp.(!l) <- c;
        incr l
      end
      else begin
        tmp.(!r) <- c;
        incr r
      end
    done;
    Array.blit tmp lo a lo (hi - lo)
  in
  let distinct (keys : float array) a lo hi =
    let ok = ref true in
    for k = lo + 1 to hi - 1 do
      if keys.(a.(k)) = keys.(a.(k - 1)) then ok := false
    done;
    !ok
  in
  (* order an internal node's cells along its axis, hand each half its
     cells in [sx]/[sy], and return the two children's regions and the
     split slot *)
  let split (region : Rect.t) lo hi horizontal =
    let count = hi - lo in
    let keys = if horizontal then xs else ys and own = if horizontal then sx else sy in
    if presorted && distinct keys own lo hi then Array.blit own lo idx lo count
    else begin
      let sub = Array.sub idx lo count in
      Array.sort (fun a b -> Float.compare keys.(a) keys.(b)) sub;
      Array.blit sub 0 idx lo count
    end;
    let mid = lo + (count / 2) in
    if presorted then begin
      for k = lo to hi - 1 do
        Bytes.set in_left idx.(k) (if k < mid then 'l' else 'r')
      done;
      partition sx lo mid hi;
      partition sy lo mid hi
    end;
    let frac = float_of_int (mid - lo) /. float_of_int count in
    if horizontal then begin
      let split = region.Rect.xmin +. (frac *. Rect.width region) in
      ( Rect.make ~xmin:region.Rect.xmin ~ymin:region.Rect.ymin ~xmax:split
          ~ymax:region.Rect.ymax,
        Rect.make ~xmin:split ~ymin:region.Rect.ymin ~xmax:region.Rect.xmax
          ~ymax:region.Rect.ymax,
        mid )
    end
    else begin
      let split = region.Rect.ymin +. (frac *. Rect.height region) in
      ( Rect.make ~xmin:region.Rect.xmin ~ymin:region.Rect.ymin ~xmax:region.Rect.xmax
          ~ymax:split,
        Rect.make ~xmin:region.Rect.xmin ~ymin:split ~xmax:region.Rect.xmax
          ~ymax:region.Rect.ymax,
        mid )
    end
  in
  let rec go rng (region : Rect.t) lo hi horizontal =
    if hi - lo <= 2 then
      for k = lo to hi - 1 do
        let jx = Rc_util.Rng.float_in rng 0.3 0.7 and jy = Rc_util.Rng.float_in rng 0.3 0.7 in
        targets.(idx.(k)) <-
          Point.make
            (region.Rect.xmin +. (jx *. Rect.width region))
            (region.Rect.ymin +. (jy *. Rect.height region))
      done
    else begin
      let left, right, mid = split region lo hi horizontal in
      go rng left lo mid (not horizontal);
      go rng right mid hi (not horizontal)
    end
  in
  (* the top levels in this domain, collecting the subtrees left to
     right (below the cutoff the one subtree is the whole tree); then
     one pool task per subtree *)
  let levels = if parallel then spread_levels else 0 in
  let subtrees = ref [] in
  let rec top depth region lo hi horizontal =
    if depth = levels || hi - lo <= 2 then subtrees := (region, lo, hi, horizontal) :: !subtrees
    else begin
      let left, right, mid = split region lo hi horizontal in
      top (depth + 1) left lo mid (not horizontal);
      top (depth + 1) right mid hi (not horizontal)
    end
  in
  top 0 chip 0 m (Rect.width chip >= Rect.height chip);
  let subtrees = Array.of_list (List.rev !subtrees) in
  Rc_par.Pool.for_ ~chunk:1 (Array.length subtrees) (fun s ->
      let region, lo, hi, horizontal = subtrees.(s) in
      go (Rc_util.Rng.ahead rng (2 * lo)) region lo hi horizontal);
  Rc_util.Rng.skip rng (2 * m);
  targets

(* ---- legalization ---------------------------------------------------- *)

let legalize netlist ~chip ~site positions =
  let nx = max 1 (int_of_float (Rect.width chip /. site)) in
  let ny = max 1 (int_of_float (Rect.height chip /. site)) in
  (* one byte per site, row-major: site (ix, iy) is byte iy·nx + ix *)
  let occupied = Bytes.make (nx * ny) '\000' in
  let center_x ix = chip.Rect.xmin +. ((float_of_int ix +. 0.5) *. site) in
  let center_y iy = chip.Rect.ymin +. ((float_of_int iy +. 0.5) *. site) in
  let clamp v lo hi = max lo (min hi v) in
  let out = Array.copy positions in
  let n = Netlist.n_cells netlist in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then begin
      let p = positions.(c) in
      let ix0 = clamp (int_of_float ((p.Point.x -. chip.Rect.xmin) /. site)) 0 (nx - 1) in
      let iy0 = clamp (int_of_float ((p.Point.y -. chip.Rect.ymin) /. site)) 0 (ny - 1) in
      (* spiral outward over Chebyshev rings until a free in-bounds site;
         within a ring the first site of least Manhattan distance wins *)
      let placed = ref false and r = ref 0 in
      while not !placed do
        let found = ref false and bd = ref 0.0 and bx = ref 0 and by = ref 0 in
        let consider ix iy =
          if
            ix >= 0 && ix < nx && iy >= 0 && iy < ny
            && Bytes.get occupied ((iy * nx) + ix) = '\000'
          then begin
            let d =
              Float.abs (p.Point.x -. center_x ix) +. Float.abs (p.Point.y -. center_y iy)
            in
            if not (!found && !bd <= d) then begin
              found := true;
              bd := d;
              bx := ix;
              by := iy
            end
          end
        in
        if !r = 0 then consider ix0 iy0
        else begin
          for dx = - !r to !r do
            consider (ix0 + dx) (iy0 - !r);
            consider (ix0 + dx) (iy0 + !r)
          done;
          for dy = - !r + 1 to !r - 1 do
            consider (ix0 - !r) (iy0 + dy);
            consider (ix0 + !r) (iy0 + dy)
          done
        end;
        if !found then begin
          Bytes.set occupied ((!by * nx) + !bx) '\001';
          out.(c) <- Point.make (center_x !bx) (center_y !by);
          placed := true
        end
        else begin
          incr r;
          if !r > nx + ny then failwith "Qplace.legalize: no free site found"
        end
      done
    end
  done;
  out

(* ---- multilevel V-cycle (mPL-style clustered placement) -------------- *)

(* Above this many movable cells [initial] switches from the flat
   solve-and-spread schedule to the V-cycle below; every Table II
   circuit sits far under it, so the paper path stays bit-identical. *)
let multilevel_threshold = 50_000

(* stop coarsening once a level is this small: CG is cheap there and
   the bisection spreading still has room to work.  Scaled down for
   circuits (or tests) that enter the V-cycle near the threshold, so
   they still see a real cluster hierarchy. *)
let coarse_target m = max 2_000 (min 12_000 (m / 8))

(* A placement level: the star-model connectivity graph over movable
   vertices plus per-vertex fixed-anchor accumulators (pad connections,
   center regularization).  Fixed anchors are stored pre-multiplied
   (Σw, Σw·x, Σw·y) so coarsening them is pure accumulation. *)
type mgraph = {
  gm : int;  (* vertices *)
  ges : int array;  (* undirected edge endpoints, one slot per edge *)
  ged : int array;
  gew : float array;
  gne : int;
  gfw : float array;  (* per-vertex Σ anchor weight *)
  gfx : float array;  (* per-vertex Σ weight · anchor.x *)
  gfy : float array;
}

let mgraph_of_netlist netlist ~chip ~index ~m =
  let buf = ebuf_create () in
  let gfw = Array.make m 0.0 and gfx = Array.make m 0.0 and gfy = Array.make m 0.0 in
  let fixed i w (p : Point.t) =
    gfw.(i) <- gfw.(i) +. w;
    gfx.(i) <- gfx.(i) +. (w *. p.Point.x);
    gfy.(i) <- gfy.(i) +. (w *. p.Point.y)
  in
  let connect a b w =
    match (index.(a), index.(b)) with
    | -1, -1 -> ()
    | ia, -1 -> fixed ia w (Netlist.pad_position netlist b)
    | -1, ib -> fixed ib w (Netlist.pad_position netlist a)
    | ia, ib -> if ia <> ib then ebuf_push buf ia ib w
  in
  Netlist.iter_nets netlist (fun _ net ->
      let k = 1 + Array.length net.sinks in
      let w = 2.0 /. float_of_int k in
      Array.iter (fun s -> connect net.driver s w) net.sinks);
  let c = Rect.center chip in
  for i = 0 to m - 1 do
    fixed i center_anchor_weight c
  done;
  { gm = m; ges = buf.ei; ged = buf.ej; gew = buf.ev; gne = buf.en; gfw; gfx; gfy }

(* quadratic system of one level, optionally with uniform spreading
   springs of strength [alpha] toward per-vertex [targets] *)
let system_of_mgraph g ~springs =
  let buf = ebuf_create () in
  for e = 0 to g.gne - 1 do
    let i = g.ges.(e) and j = g.ged.(e) and w = g.gew.(e) in
    ebuf_push buf i i w;
    ebuf_push buf j j w;
    ebuf_push buf i j (-.w);
    ebuf_push buf j i (-.w)
  done;
  let rhs_x = Array.make g.gm 0.0 and rhs_y = Array.make g.gm 0.0 in
  for i = 0 to g.gm - 1 do
    let w, wx, wy =
      match springs with
      | None -> (g.gfw.(i), g.gfx.(i), g.gfy.(i))
      | Some (targets, alpha) ->
          let (t : Point.t) = targets.(i) in
          ( g.gfw.(i) +. alpha,
            g.gfx.(i) +. (alpha *. t.Point.x),
            g.gfy.(i) +. (alpha *. t.Point.y) )
    in
    if w <> 0.0 then ebuf_push buf i i w;
    rhs_x.(i) <- wx;
    rhs_y.(i) <- wy
  done;
  let matrix = Rc_sparse.Csr.of_entries ~rows:g.gm ~cols:g.gm ~len:buf.en buf.ei buf.ej buf.ev in
  { matrix; rhs_x; rhs_y }

(* one level of first-choice / heavy-edge coarsening: match each vertex
   (in index order) to its heaviest still-unmatched neighbor, merge the
   pairs, remap edges and accumulate anchors.  Cross-cluster multi-edges
   are merged in cluster-pair order so every level's graph stays
   canonical. *)
let coarsen g =
  let m = g.gm in
  (* adjacency CSR over both edge directions *)
  let ptr = Array.make (m + 1) 0 in
  for e = 0 to g.gne - 1 do
    ptr.(g.ges.(e) + 1) <- ptr.(g.ges.(e) + 1) + 1;
    ptr.(g.ged.(e) + 1) <- ptr.(g.ged.(e) + 1) + 1
  done;
  for i = 1 to m do
    ptr.(i) <- ptr.(i) + ptr.(i - 1)
  done;
  let adj_v = Array.make (2 * g.gne) 0 and adj_w = Array.make (2 * g.gne) 0.0 in
  let cursor = Array.copy ptr in
  for e = 0 to g.gne - 1 do
    let u = g.ges.(e) and v = g.ged.(e) and w = g.gew.(e) in
    adj_v.(cursor.(u)) <- v;
    adj_w.(cursor.(u)) <- w;
    cursor.(u) <- cursor.(u) + 1;
    adj_v.(cursor.(v)) <- u;
    adj_w.(cursor.(v)) <- w;
    cursor.(v) <- cursor.(v) + 1
  done;
  let mate = Array.make m (-1) in
  for v = 0 to m - 1 do
    if mate.(v) < 0 then begin
      let best = ref (-1) and best_w = ref neg_infinity in
      for k = ptr.(v) to ptr.(v + 1) - 1 do
        let u = adj_v.(k) in
        if u <> v && mate.(u) < 0 && adj_w.(k) > !best_w then begin
          best := u;
          best_w := adj_w.(k)
        end
      done;
      if !best >= 0 then begin
        mate.(v) <- !best;
        mate.(!best) <- v
      end
      else mate.(v) <- v
    end
  done;
  let map = Array.make m (-1) in
  let mc = ref 0 in
  for v = 0 to m - 1 do
    if map.(v) < 0 then begin
      map.(v) <- !mc;
      if mate.(v) <> v then map.(mate.(v)) <- !mc;
      incr mc
    end
  done;
  let mc = !mc in
  let gfw = Array.make mc 0.0 and gfx = Array.make mc 0.0 and gfy = Array.make mc 0.0 in
  for v = 0 to m - 1 do
    let c = map.(v) in
    gfw.(c) <- gfw.(c) +. g.gfw.(v);
    gfx.(c) <- gfx.(c) +. g.gfx.(v);
    gfy.(c) <- gfy.(c) +. g.gfy.(v)
  done;
  (* surviving cross-cluster edges as (smaller, larger) cluster pairs,
     in ascending edge id *)
  let keep = Array.make g.gne 0 and nkeep = ref 0 in
  for e = 0 to g.gne - 1 do
    if map.(g.ges.(e)) <> map.(g.ged.(e)) then begin
      keep.(!nkeep) <- e;
      incr nkeep
    end
  done;
  let nkeep = !nkeep in
  let cu = Array.make nkeep 0 and cv = Array.make nkeep 0 in
  for k = 0 to nkeep - 1 do
    let a = map.(g.ges.(keep.(k))) and b = map.(g.ged.(keep.(k))) in
    cu.(k) <- min a b;
    cv.(k) <- max a b
  done;
  (* Order them by (smaller, larger, edge id) for the duplicate merge:
     two stable counting passes over the ascending edge ids, first by
     the larger cluster id, then by the smaller, give that order in
     O(E + clusters).  It is total (edge ids are distinct), so it is the
     permutation a comparison sort on the same key would leave. *)
  let counting_pass key src dst =
    let start = Array.make (mc + 1) 0 in
    Array.iter (fun k -> start.(key.(k) + 1) <- start.(key.(k) + 1) + 1) src;
    for c = 1 to mc do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    Array.iter
      (fun k ->
        dst.(start.(key.(k))) <- k;
        start.(key.(k)) <- start.(key.(k)) + 1)
      src
  in
  let by_larger = Array.make nkeep 0 and perm = Array.make nkeep 0 in
  counting_pass cv (Array.init nkeep Fun.id) by_larger;
  counting_pass cu by_larger perm;
  let ces = Array.make nkeep 0 and ced = Array.make nkeep 0 and cew = Array.make nkeep 0.0 in
  let out = ref 0 and k = ref 0 in
  while !k < nkeep do
    let u = cu.(perm.(!k)) and v = cv.(perm.(!k)) in
    let acc = ref g.gew.(keep.(perm.(!k))) in
    incr k;
    while !k < nkeep && cu.(perm.(!k)) = u && cv.(perm.(!k)) = v do
      acc := !acc +. g.gew.(keep.(perm.(!k)));
      incr k
    done;
    ces.(!out) <- u;
    ced.(!out) <- v;
    cew.(!out) <- !acc;
    incr out
  done;
  (map, { gm = mc; ges = ces; ged = ced; gew = cew; gne = !out; gfw; gfx; gfy })

(* the V-cycle: coarsen to [coarse_target], solve and spread there, then
   interpolate down the chain with one warm-started spreading relaxation
   per level (two at the finest, ending on the flat schedule's final
   anchor strength 0.01·2⁵) *)
let initial_multilevel ~seed netlist ~chip =
  let rng = Rc_util.Rng.create seed in
  let movable, index = movable_index netlist in
  let m = Array.length movable in
  let g0 = mgraph_of_netlist netlist ~chip ~index ~m in
  let coarse_target = coarse_target m in
  let rec chain acc g =
    if g.gm <= coarse_target then (acc, g)
    else
      let map, gc = coarsen g in
      (* a stalled level (under 10% reduction) would only add cost *)
      if gc.gm * 10 >= g.gm * 9 then (acc, g) else chain ((g, map) :: acc) gc
  in
  let levels, coarsest = chain [] g0 in
  let iters = ref 0 in
  let xs = ref [||] and ys = ref [||] in
  Rc_par.Pool.region (fun () ->
      let relax g ~wsx ~wsy ~springs ~x0 ~y0 =
        let x, y, it = solve_system ~wsx ~wsy ?x0 ?y0 (system_of_mgraph g ~springs) in
        iters := !iters + it;
        (x, y)
      in
      (* coarsest level: cold connectivity solve + early spreading *)
      let wsx = Rc_sparse.Cg.workspace coarsest.gm
      and wsy = Rc_sparse.Cg.workspace coarsest.gm in
      let x, y = relax coarsest ~wsx ~wsy ~springs:None ~x0:None ~y0:None in
      xs := x;
      ys := y;
      List.iter
        (fun alpha ->
          let targets = spreading_targets rng chip coarsest.gm !xs !ys in
          let x, y =
            relax coarsest ~wsx ~wsy ~springs:(Some (targets, alpha)) ~x0:(Some !xs)
              ~y0:(Some !ys)
          in
          xs := x;
          ys := y)
        [ 0.02; 0.04 ];
      (* refinement sweep, finest level last *)
      List.iter
        (fun (g, map) ->
          let xf = Array.make g.gm 0.0 and yf = Array.make g.gm 0.0 in
          for i = 0 to g.gm - 1 do
            xf.(i) <- !xs.(map.(i));
            yf.(i) <- !ys.(map.(i))
          done;
          xs := xf;
          ys := yf;
          let wsx = Rc_sparse.Cg.workspace g.gm and wsy = Rc_sparse.Cg.workspace g.gm in
          let alphas = if g == g0 then [ 0.16; 0.32 ] else [ 0.08 ] in
          List.iter
            (fun alpha ->
              let targets = spreading_targets rng chip g.gm !xs !ys in
              let x, y =
                relax g ~wsx ~wsy ~springs:(Some (targets, alpha)) ~x0:(Some !xs)
                  ~y0:(Some !ys)
              in
              xs := x;
              ys := y)
            alphas)
        levels);
  let n = Netlist.n_cells netlist in
  let spread =
    Array.init n (fun c ->
        if index.(c) >= 0 then Point.make !xs.(index.(c)) !ys.(index.(c))
        else Netlist.pad_position netlist c)
  in
  let legal = legalize netlist ~chip ~site:10.0 spread in
  { positions = legal; hpwl = Wirelength.total netlist legal; solver_iterations = !iters }

(* ---- top-level entry points ------------------------------------------ *)

let initial_flat ~seed ~spread_rounds netlist ~chip =
  let rng = Rc_util.Rng.create seed in
  let iters = ref 0 in
  let lap = laplacian netlist ~chip in
  (* every round solves the same-size system: share two CG workspaces
     (one per axis — the solves run concurrently) across all rounds *)
  let m = Array.length lap.movable in
  let wsx = Rc_sparse.Cg.workspace m and wsy = Rc_sparse.Cg.workspace m in
  let xs = ref [||] and ys = ref [||] in
  (* one batch region for the whole spreading stage: every round's x/y
     solve pair publishes a sub-job to the captive workers instead of
     waking the pool per solve *)
  Rc_par.Pool.region (fun () ->
      (* pass 1: pure connectivity solve *)
      let x0, y0, it0 = solve_system ~wsx ~wsy (system lap []) in
      xs := x0;
      ys := y0;
      iters := !iters + it0;
      (* spreading rounds with growing anchor strength *)
      for round = 1 to spread_rounds do
        let targets = spreading_targets rng chip m !xs !ys in
        let alpha = 0.01 *. (2.0 ** float_of_int round) in
        let sys = system lap [ target_springs targets alpha ] in
        let x, y, it = solve_system ~wsx ~wsy ~x0:!xs ~y0:!ys sys in
        xs := x;
        ys := y;
        iters := !iters + it
      done);
  let spread = assemble_positions netlist lap.index !xs !ys in
  let legal = legalize netlist ~chip ~site:10.0 spread in
  { positions = legal; hpwl = Wirelength.total netlist legal; solver_iterations = !iters }

(* [initial] keeps the paper circuits (well under the threshold) on the
   flat schedule byte for byte; the scaling suite takes the V-cycle *)
let initial ?(multilevel_threshold = multilevel_threshold) netlist ~chip =
  let n = Netlist.n_cells netlist in
  let m = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then incr m
  done;
  if !m >= multilevel_threshold then initial_multilevel ~seed:7 netlist ~chip
  else initial_flat ~seed:7 ~spread_rounds:5 netlist ~chip

let incremental ?(stability = 0.004) ~lap netlist ~chip ~prev ~pseudo =
  let n = Netlist.n_cells netlist in
  if Array.length prev <> n then invalid_arg "Qplace.incremental: prev length mismatch";
  if Array.length lap.index <> n then
    invalid_arg "Qplace.incremental: Laplacian of another netlist";
  let rng = Rc_util.Rng.create 23 in
  let m = Array.length lap.movable in
  let wsx = Rc_sparse.Cg.workspace m and wsy = Rc_sparse.Cg.workspace m in
  let x0 = Array.map (fun c -> prev.(c).Point.x) lap.movable in
  let y0 = Array.map (fun c -> prev.(c).Point.y) lap.movable in
  (* a stability spring per movable cell toward its previous location,
     then the pseudo-nets on movable cells, in that order *)
  let pseudo = Array.of_list (List.filter (fun pn -> lap.index.(pn.cell) >= 0) pseudo) in
  let base_springs =
    [
      row_springs x0 y0 stability;
      {
        rows = Array.map (fun pn -> lap.index.(pn.cell)) pseudo;
        px = Array.map (fun pn -> pn.anchor.Point.x) pseudo;
        py = Array.map (fun pn -> pn.anchor.Point.y) pseudo;
        w = Array.map (fun pn -> pn.weight) pseudo;
      };
    ]
  in
  let xs = ref x0 and ys = ref y0 and iters = ref 0 in
  (* same batch-region discipline as [initial] *)
  Rc_par.Pool.region (fun () ->
      let x, y, it = solve_system ~wsx ~wsy ~x0:!xs ~y0:!ys (system lap base_springs) in
      xs := x;
      ys := y;
      iters := !iters + it;
      (* keep the density profile of the initial placement: the same
         bisection-spreading rounds, ending at the strength the initial
         pass ends with (0.01·2⁵), so incremental results stay
         comparable *)
      for round = 3 to 5 do
        let targets = spreading_targets rng chip m !xs !ys in
        let alpha = 0.01 *. (2.0 ** float_of_int round) in
        let sys = system lap (base_springs @ [ target_springs targets alpha ]) in
        let x, y, it = solve_system ~wsx ~wsy ~x0:!xs ~y0:!ys sys in
        xs := x;
        ys := y;
        iters := !iters + it
      done);
  let spread = assemble_positions netlist lap.index !xs !ys in
  let legal = legalize netlist ~chip ~site:10.0 spread in
  { positions = legal; hpwl = Wirelength.total netlist legal; solver_iterations = !iters }

let relocate netlist ~chip ~site ~prev ~pseudo =
  if site <= 0.0 then invalid_arg "Qplace.relocate: non-positive site pitch";
  let n = Netlist.n_cells netlist in
  if Array.length prev <> n then invalid_arg "Qplace.relocate: prev length mismatch";
  let pos = Array.copy prev in
  let nx = max 1 (int_of_float (Rect.width chip /. site)) in
  let ny = max 1 (int_of_float (Rect.height chip /. site)) in
  let clampi v hi = max 0 (min hi v) in
  let site_of (p : Point.t) =
    ( clampi (int_of_float ((p.Point.x -. chip.Rect.xmin) /. site)) (nx - 1),
      clampi (int_of_float ((p.Point.y -. chip.Rect.ymin) /. site)) (ny - 1) )
  in
  let site_center ix iy =
    Point.make
      (chip.Rect.xmin +. ((float_of_int ix +. 0.5) *. site))
      (chip.Rect.ymin +. ((float_of_int iy +. 0.5) *. site))
  in
  let occ = Hashtbl.create 1024 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then Hashtbl.replace occ (site_of pos.(c)) c
  done;
  List.iter
    (fun { cell; anchor; weight } ->
      if cell < 0 || cell >= n || not (Netlist.movable netlist cell) then
        invalid_arg "Qplace.relocate: bad pseudo-net cell";
      let lambda = Float.max 0.0 weight /. (Float.max 0.0 weight +. 1.0) in
      let target =
        Rect.clamp_point chip
          (Point.add (Point.scale (1.0 -. lambda) pos.(cell)) (Point.scale lambda anchor))
      in
      (* free the old site, spiral to a free site near the target *)
      Hashtbl.remove occ (site_of pos.(cell));
      let tix, tiy = site_of target in
      let placed = ref false and r = ref 0 in
      while not !placed do
        let best = ref None in
        let consider ix iy =
          if ix >= 0 && ix < nx && iy >= 0 && iy < ny && not (Hashtbl.mem occ (ix, iy))
          then begin
            let d = Point.manhattan target (site_center ix iy) in
            match !best with
            | Some (bd, _, _) when bd <= d -> ()
            | _ -> best := Some (d, ix, iy)
          end
        in
        if !r = 0 then consider tix tiy
        else begin
          for dx = - !r to !r do
            consider (tix + dx) (tiy - !r);
            consider (tix + dx) (tiy + !r)
          done;
          for dy = - !r + 1 to !r - 1 do
            consider (tix - !r) (tiy + dy);
            consider (tix + !r) (tiy + dy)
          done
        end;
        (match !best with
        | Some (_, ix, iy) ->
            Hashtbl.replace occ (ix, iy) cell;
            pos.(cell) <- site_center ix iy;
            placed := true
        | None ->
            incr r;
            if !r > nx + ny then failwith "Qplace.relocate: no free site")
      done)
    pseudo;
  pos
