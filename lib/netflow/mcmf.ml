(* Residual-network representation: forward and backward arcs are stored
   interleaved; arc i and arc (i lxor 1) are mutual inverses.

   Two successive-shortest-path cores share this representation:

   - the {e bucket-Dijkstra} core (the default behind [solve] and
     [solve_warm]): Dijkstra on reduced costs over a 64-bucket radix
     heap keyed on the IEEE-754 bit pattern of the distance, with early
     termination once the sink is scanned, touched-set resets (per-
     augmentation work is proportional to the explored region, not the
     network), and a CSR-packed adjacency frozen lazily from the
     [first]/[next] chains;
   - the {e lazy-source} core ([solve_unit_supply]): the same search,
     step for step, on unit-supply bipartite networks, settling the
     unassigned items that would relax nothing without visiting them.

   The tests hold the bucket-Dijkstra core to a plain binary-heap
   successive-shortest-path solver and the lazy-source core to the
   bucket-Dijkstra one. *)

type t = {
  n : int;
  mutable heads : int array;  (* arc -> dst *)
  mutable caps : int array;  (* residual capacity *)
  mutable costs : float array;
  mutable next : int array;  (* arc -> next arc of same tail *)
  first : int array;  (* vertex -> first arc, -1 terminated *)
  mutable m : int;  (* number of residual arcs (2x public arcs) *)
  (* CSR-packed adjacency, frozen lazily: [adj_arc] lists every arc id
     grouped by tail, each group in exactly the [first]/[next] chain
     order, so relaxation tie-breaking is unchanged. Invalidated by
     [add_arc] (topology edits), not by cap/cost edits. *)
  mutable adj_ptr : int array;
  mutable adj_arc : int array;
  mutable frozen_m : int;  (* m at last freeze, -1 = stale *)
  mutable scratch : scratch option;  (* per-network Dijkstra scratch *)
}

and scratch = {
  dist : float array;
  pred_arc : int array;
  scanned : bool array;
  touched : int array;  (* stack of vertices with non-default labels *)
  mutable n_touched : int;
  scan_order : int array;  (* scanned vertices, in scan order *)
  mutable n_scanned : int;
  heap : rheap;
}

(* 64-bucket radix heap over monotone non-negative float keys. The key
   is the top 62 bits of the IEEE-754 pattern ([bits lsr 1]): the map
   is order-preserving on non-negative floats, collapsing only pairs
   one ulp apart — within the 1e-12 comparison slack the Dijkstra loop
   already tolerates. The exact float is carried alongside for the
   stale-entry check. Pops are non-decreasing in the integer key;
   entries with equal keys pop newest-first (deterministic). *)
and rheap = {
  mutable hsize : int;
  mutable hlast : int;  (* monotone floor key *)
  mutable bkey : int array array;  (* 63 buckets, growable *)
  mutable bfk : float array array;  (* exact float keys *)
  mutable bval : int array array;  (* vertices *)
  blen : int array;
}

let n_buckets = 63

let rheap_create () =
  {
    hsize = 0;
    hlast = 0;
    bkey = Array.init n_buckets (fun _ -> Array.make 8 0);
    bfk = Array.init n_buckets (fun _ -> Array.make 8 0.0);
    bval = Array.init n_buckets (fun _ -> Array.make 8 0);
    blen = Array.make n_buckets 0;
  }

let rheap_clear h =
  h.hsize <- 0;
  h.hlast <- 0;
  Array.fill h.blen 0 n_buckets 0

let key_of_float d = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float d) 1)

(* position of the highest set bit of x > 0 *)
let msb x =
  let r = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin r := !r + 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin r := !r + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin r := !r + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin r := !r + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin r := !r + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then incr r;
  !r

let bucket_of h k = if k = h.hlast then 0 else 1 + msb (k lxor h.hlast)

let rheap_push h k fk v =
  let b = bucket_of h k in
  let len = h.blen.(b) in
  if len = Array.length h.bkey.(b) then begin
    let cap = 2 * len in
    let nk = Array.make cap 0 and nf = Array.make cap 0.0 and nv = Array.make cap 0 in
    Array.blit h.bkey.(b) 0 nk 0 len;
    Array.blit h.bfk.(b) 0 nf 0 len;
    Array.blit h.bval.(b) 0 nv 0 len;
    h.bkey.(b) <- nk;
    h.bfk.(b) <- nf;
    h.bval.(b) <- nv
  end;
  h.bkey.(b).(len) <- k;
  h.bfk.(b).(len) <- fk;
  h.bval.(b).(len) <- v;
  h.blen.(b) <- len + 1;
  h.hsize <- h.hsize + 1

(* Pop a minimum-key entry; the float key and vertex land in the two
   refs. Returns false on an empty heap. *)
let rheap_pop h fk_out v_out =
  if h.hsize = 0 then false
  else begin
    if h.blen.(0) = 0 then begin
      (* find the lowest non-empty bucket, pull its minimum key out as
         the new floor, redistribute into strictly lower buckets *)
      let b = ref 1 in
      while h.blen.(!b) = 0 do
        incr b
      done;
      let b = !b in
      let len = h.blen.(b) in
      let keys = h.bkey.(b) and fks = h.bfk.(b) and vals = h.bval.(b) in
      let mn = ref keys.(0) in
      for i = 1 to len - 1 do
        if keys.(i) < !mn then mn := keys.(i)
      done;
      h.hlast <- !mn;
      h.blen.(b) <- 0;
      h.hsize <- h.hsize - len;
      for i = 0 to len - 1 do
        rheap_push h keys.(i) fks.(i) vals.(i)
      done
    end;
    let len = h.blen.(0) - 1 in
    fk_out := h.bfk.(0).(len);
    v_out := h.bval.(0).(len);
    h.blen.(0) <- len;
    h.hsize <- h.hsize - 1;
    true
  end

let create n =
  if n < 0 then invalid_arg "Mcmf.create";
  {
    n;
    heads = Array.make 16 0;
    caps = Array.make 16 0;
    costs = Array.make 16 0.0;
    next = Array.make 16 (-1);
    first = Array.make (max n 1) (-1);
    m = 0;
    adj_ptr = [||];
    adj_arc = [||];
    frozen_m = -1;
    scratch = None;
  }

let grow t =
  let cap = Array.length t.heads in
  let heads = Array.make (2 * cap) 0
  and caps = Array.make (2 * cap) 0
  and costs = Array.make (2 * cap) 0.0
  and next = Array.make (2 * cap) (-1) in
  Array.blit t.heads 0 heads 0 t.m;
  Array.blit t.caps 0 caps 0 t.m;
  Array.blit t.costs 0 costs 0 t.m;
  Array.blit t.next 0 next 0 t.m;
  t.heads <- heads;
  t.caps <- caps;
  t.costs <- costs;
  t.next <- next

let push_arc t tail head cap cost =
  if t.m = Array.length t.heads then grow t;
  let a = t.m in
  t.heads.(a) <- head;
  t.caps.(a) <- cap;
  t.costs.(a) <- cost;
  t.next.(a) <- t.first.(tail);
  t.first.(tail) <- a;
  t.m <- t.m + 1;
  t.frozen_m <- -1;
  a

let add_arc t ~src ~dst ~capacity ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Mcmf.add_arc: vertex out of range";
  if capacity < 0 then invalid_arg "Mcmf.add_arc: negative capacity";
  let a = push_arc t src dst capacity cost in
  ignore (push_arc t dst src 0 (-.cost));
  a

(* Pack the adjacency chains into CSR form. Group order per vertex is
   the exact [first]/[next] walk, so scans relax arcs in the same order
   as a chain walk would. *)
let freeze t =
  if t.frozen_m <> t.m then begin
    if Array.length t.adj_ptr <> t.n + 1 then t.adj_ptr <- Array.make (t.n + 1) 0;
    if Array.length t.adj_arc < t.m then t.adj_arc <- Array.make (max t.m 16) 0;
    let k = ref 0 in
    for v = 0 to t.n - 1 do
      t.adj_ptr.(v) <- !k;
      let a = ref t.first.(v) in
      while !a >= 0 do
        t.adj_arc.(!k) <- !a;
        incr k;
        a := t.next.(!a)
      done
    done;
    t.adj_ptr.(t.n) <- !k;
    t.frozen_m <- t.m
  end

let scratch_of t =
  match t.scratch with
  | Some s -> s
  | None ->
      let s =
        {
          dist = Array.make t.n infinity;
          pred_arc = Array.make t.n (-1);
          scanned = Array.make t.n false;
          touched = Array.make t.n 0;
          n_touched = 0;
          scan_order = Array.make t.n 0;
          n_scanned = 0;
          heap = rheap_create ();
        }
      in
      t.scratch <- Some s;
      s

type arc = int

type outcome = { flow : int; cost : float }

let m_solves = Rc_obs.Metrics.counter "netflow.mcmf.solves"
let m_augmentations = Rc_obs.Metrics.counter "netflow.mcmf.augmentations"
let m_flow_units = Rc_obs.Metrics.counter "netflow.mcmf.flow_units"
let m_bf_runs = Rc_obs.Metrics.counter "netflow.mcmf.bellman_ford_runs"
let m_scanned = Rc_obs.Metrics.counter "netflow.mcmf.dijkstra_scans"
let m_sweep_skips = Rc_obs.Metrics.counter "netflow.mcmf.sweep_skips"

let touch s v =
  s.touched.(s.n_touched) <- v;
  s.n_touched <- s.n_touched + 1

let bellman_ford_potentials t source =
  (* Vertices unreachable from [source] must NOT be mapped down to 0.0:
     an arc out of such a vertex into the reachable region would then get
     reduced cost [cost - pot(head)], which can be negative, and later
     augmentations would see an inconsistent dual. Instead every
     non-source vertex starts at a large *finite*
     sentinel [big] and the sweep relaxes to a fixpoint; any fixpoint of
     the relaxation satisfies pot(head) <= pot(tail) + cost on every
     residual arc, which is all the Dijkstra stage needs. [big] exceeds
     twice the total absolute cost, so vertices reachable from [source]
     still converge to their true shortest-path distance (a source path
     costs at most the total, while any sentinel-seeded path costs at
     least [big] minus the total). *)
  let big = ref 1.0 in
  for a = 0 to t.m - 1 do
    big := !big +. Float.abs t.costs.(a)
  done;
  let pot = Array.make t.n !big in
  pot.(source) <- 0.0;
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds <= t.n do
    changed := false;
    incr rounds;
    for v = 0 to t.n - 1 do
      let a = ref t.first.(v) in
      while !a >= 0 do
        if t.caps.(!a) > 0 then begin
          let nd = pot.(v) +. t.costs.(!a) in
          if nd < pot.(t.heads.(!a)) -. 1e-12 then begin
            pot.(t.heads.(!a)) <- nd;
            changed := true
          end
        end;
        a := t.next.(!a)
      done
    done
  done;
  pot

(* ---- bucket-Dijkstra core (the default) ------------------------------ *)

(* Successive shortest paths from a given feasible dual. [pot] is
   mutated in place, so after the call it holds the final potentials.

   Each augmentation runs Dijkstra on reduced costs over the radix heap
   and stops as soon as the sink is scanned; the duals of scanned
   vertices are then updated by [dist(v) - dist(sink)] (unscanned
   vertices keep their dual), which preserves feasibility:
   - scanned u -> scanned v: rc' = rc + d(u) - d(v) >= 0 (v was relaxed
     from u when u was scanned);
   - scanned u -> unscanned v: v's tentative label is >= d(sink), and
     it was relaxed from u, so rc + d(u) >= d(sink) and rc' >= 0;
   - unscanned u -> scanned v: d(v) <= d(sink), so rc' >= rc >= 0;
   - unscanned -> unscanned: unchanged.
   Every label write is undone through the touched stack, so one
   augmentation costs O(explored region), not O(n).

   [flow0]/[cost0] resume the running totals of an earlier core on the
   same network, so the cost sums in the same order as one run would. *)
let augment ?(amount = max_int) ?(flow0 = 0) ?(cost0 = 0.0) t ~pot ~source ~sink =
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Mcmf.solve: vertex out of range";
  if Array.length pot <> t.n then invalid_arg "Mcmf: potentials length mismatch";
  freeze t;
  let s = scratch_of t in
  let dist = s.dist
  and pred_arc = s.pred_arc
  and scanned = s.scanned
  and heap = s.heap in
  let adj_ptr = t.adj_ptr and adj_arc = t.adj_arc in
  let heads = t.heads and caps = t.caps and costs = t.costs in
  let total_flow = ref flow0 and total_cost = ref cost0 in
  let continue = ref true in
  let dq = ref 0.0 and vq = ref 0 in
  let touch v = touch s v in
  while !continue && !total_flow < amount do
    (* reset only what the previous augmentation touched *)
    for i = 0 to s.n_touched - 1 do
      let v = s.touched.(i) in
      dist.(v) <- infinity;
      pred_arc.(v) <- -1;
      scanned.(v) <- false
    done;
    s.n_touched <- 0;
    s.n_scanned <- 0;
    rheap_clear heap;
    dist.(source) <- 0.0;
    touch source;
    rheap_push heap (key_of_float 0.0) 0.0 source;
    let sink_done = ref false in
    while (not !sink_done) && rheap_pop heap dq vq do
      let v = !vq and d = !dq in
      if d <= dist.(v) +. 1e-12 && not scanned.(v) then begin
        scanned.(v) <- true;
        s.scan_order.(s.n_scanned) <- v;
        s.n_scanned <- s.n_scanned + 1;
        if v = sink then sink_done := true
        else begin
          let pv = pot.(v) in
          for k = adj_ptr.(v) to adj_ptr.(v + 1) - 1 do
            let a = adj_arc.(k) in
            if caps.(a) > 0 then begin
              let u = heads.(a) in
              let rc = costs.(a) +. pv -. pot.(u) in
              let rc = if rc < 0.0 then 0.0 else rc in
              let nd = d +. rc in
              if nd < dist.(u) -. 1e-12 then begin
                if pred_arc.(u) < 0 && dist.(u) = infinity then touch u;
                dist.(u) <- nd;
                pred_arc.(u) <- a;
                rheap_push heap (key_of_float nd) nd u
              end
            end
          done
        end
      end
    done;
    Rc_obs.Metrics.add m_scanned s.n_scanned;
    if not !sink_done then continue := false
    else begin
      let ds = dist.(sink) in
      for i = 0 to s.n_scanned - 1 do
        let v = s.scan_order.(i) in
        pot.(v) <- pot.(v) +. dist.(v) -. ds
      done;
      (* bottleneck along the path *)
      let bottleneck = ref (amount - !total_flow) in
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
      total_flow := !total_flow + f;
      Rc_obs.Metrics.incr m_augmentations;
      Rc_obs.Metrics.add m_flow_units f
    end
  done;
  Rc_obs.Metrics.incr m_solves;
  { flow = !total_flow; cost = !total_cost }

(* ---- lazy-source core (unit-supply bipartite networks) --------------- *)

(* [solve_unit_supply] replays the bucket-Dijkstra core step for step on
   a network shaped source -> items (capacity 1, cost 0) -> bins ->
   sink with no flow routed yet.  Each augmentation of the generic core
   scans the source, then every unassigned item, and most items relax
   nothing.  Three facts let this core settle those items unvisited:

   1. An unassigned item's only residual in-arc is its source arc and
      its potential equals the source's bit for bit, so its label is
      exactly 0.0.  All unassigned items therefore share the source's
      potential; an item's own entry is written back when it is
      assigned, and for the rest at the end.
   2. Zero-key radix entries pop newest-first, so the items (pushed by
      the source scan in CSR order) settle in reverse source-CSR order,
      the sweep order, and every zero-key vertex an item pushes settles
      before the next item.
   3. An item's relaxation value [0.0 +. max 0 ((c +. p) -. pot b)] is
      monotone in its arc cost [c].  A min-cost tree per bin over the
      arcs into it, in sweep order, finds the first item that would
      lower the bin's label past [dist b -. 1e-12] without visiting the
      items that would not.

   Skipped items still count as Dijkstra scans, so [dijkstra_scans]
   keeps the generic count; [sweep_skips] tallies them.  The entry
   check ([sweep_build]) verifies the shape, the zero flow and the
   potentials, and the core hands over to the generic one if the shared
   potential would ever split (see [sweep_run]). *)

type sweep = {
  items : int array;  (* sweep position -> item vertex *)
  src_arc : int array;  (* sweep position -> the item's source arc *)
  pos_of : int array;  (* vertex -> sweep position, -1 if not an item *)
  bin_of : int array;  (* vertex -> bin index, -1 if not a bin *)
  bins : int array;  (* bin index -> vertex *)
  alive : bool array;  (* sweep position -> still unassigned *)
  fen : int array;  (* Fenwick tree (1-based) counting alive positions *)
  lf_off : int array;  (* bin -> first leaf; a bin's leaves follow sweep order *)
  lf_pos : int array;  (* leaf -> sweep position of its item *)
  lf_of_arc : int array;  (* item -> bin arc -> its leaf *)
  tr_off : int array;  (* bin -> offset of its tree in [tr] *)
  tr_cap : int array;  (* bin -> leaf slots of its tree, a power of two *)
  tr : float array;  (* per-bin min trees over arc costs; dead = infinity *)
  nx : int array;  (* bin -> first sweep position that relaxes it, or max_int *)
  nx0 : int array;  (* bin -> [nx] at an augmentation's start (all labels infinite) *)
  tt : int array;  (* min tournament over [nx], bin b at [tt_cap + b] *)
  tt_cap : int;
  bl_off : int array;  (* bin -> its segment of [bl_slot] *)
  bl_len : int array;
  bl_slot : int array;  (* a bin's sink arcs and open reverse arcs, as ascending CSR slots *)
  slot_of : int array;  (* arc out of a bin -> its CSR slot *)
  dirty : int array;  (* bins whose [nx] needs a new search *)
  mutable n_dirty : int;
  in_dirty : bool array;
  moved : int array;  (* bins whose [nx] may differ from [nx0] *)
  mutable n_moved : int;
  in_moved : bool array;
  regs : float array;  (* [r_d]: label being scanned; [r_pv]: its potential *)
  dq : float ref;
  vq : int ref;
  mutable sweeping : bool;  (* in the zero phase: note relabelled bins *)
}

let r_d = 0
let r_pv = 1

let pow2_at_least k =
  let p = ref 1 in
  while !p < k do
    p := 2 * !p
  done;
  !p

(* Build the sweep over [t], or [None] if the network or the potentials
   break one of the facts above.  [t] must be frozen. *)
let sweep_build t ~pot ~source ~sink =
  let n = t.n in
  let adj_ptr = t.adj_ptr and adj_arc = t.adj_arc in
  let heads = t.heads and caps = t.caps and costs = t.costs in
  let ok = ref (source <> sink) in
  for v = 0 to n - 1 do
    if not (Float.is_finite pot.(v)) then ok := false
  done;
  let pos_of = Array.make n (-1) and bin_of = Array.make n (-1) in
  let deg = adj_ptr.(source + 1) - adj_ptr.(source) in
  let items = Array.make deg 0 and src_arc = Array.make deg 0 in
  let p_src = Int64.bits_of_float pot.(source) in
  (* source -> item arcs, positions in reverse CSR order *)
  for k = 0 to deg - 1 do
    let a = adj_arc.(adj_ptr.(source) + k) in
    let u = heads.(a) in
    if
      a land 1 = 1 || caps.(a) <> 1 || caps.(a lxor 1) <> 0 || costs.(a) <> 0.0
      || u = source || u = sink || pos_of.(u) >= 0
      || Int64.bits_of_float pot.(u) <> p_src
    then ok := false
    else begin
      let p = deg - 1 - k in
      items.(p) <- u;
      src_arc.(p) <- a;
      pos_of.(u) <- p
    end
  done;
  (* item -> bin arcs; the only arc into an item is its source arc *)
  let n_bins = ref 0 and arcs_in = Array.make n 0 in
  if !ok then
    for p = 0 to deg - 1 do
      let v = items.(p) in
      for k = adj_ptr.(v) to adj_ptr.(v + 1) - 1 do
        let a = adj_arc.(k) in
        let u = heads.(a) in
        if a land 1 = 1 then (if a <> src_arc.(p) lxor 1 then ok := false)
        else if
          u = source || u = sink || pos_of.(u) >= 0 || caps.(a) <> 1
          || caps.(a lxor 1) <> 0 || Float.is_nan costs.(a)
        then ok := false
        else begin
          if bin_of.(u) < 0 then begin
            bin_of.(u) <- !n_bins;
            incr n_bins
          end;
          arcs_in.(u) <- arcs_in.(u) + 1
        end
      done
    done;
  let nb = !n_bins in
  let bins = Array.make nb 0 in
  Array.iteri (fun v b -> if b >= 0 then bins.(b) <- v) bin_of;
  (* bins reach the sink, and are reached from items only *)
  if !ok then
    Array.iter
      (fun v ->
        for k = adj_ptr.(v) to adj_ptr.(v + 1) - 1 do
          let a = adj_arc.(k) in
          if a land 1 = 0 then (if heads.(a) <> sink || caps.(a lxor 1) <> 0 then ok := false)
          else if pos_of.(heads.(a)) < 0 then ok := false
        done)
      bins;
  if !ok then
    for k = adj_ptr.(sink) to adj_ptr.(sink + 1) - 1 do
      if adj_arc.(k) land 1 = 0 then ok := false
    done;
  if not !ok then None
  else begin
    let lf_off = Array.make (nb + 1) 0 in
    for b = 0 to nb - 1 do
      lf_off.(b + 1) <- lf_off.(b) + arcs_in.(bins.(b))
    done;
    let tr_cap = Array.init nb (fun b -> pow2_at_least (lf_off.(b + 1) - lf_off.(b))) in
    let tr_off = Array.make nb 0 in
    let size = ref 0 in
    for b = 0 to nb - 1 do
      tr_off.(b) <- !size;
      size := !size + (2 * tr_cap.(b))
    done;
    let tr = Array.make (max 1 !size) infinity in
    let lf_pos = Array.make lf_off.(nb) 0 and lf_of_arc = Array.make t.m (-1) in
    let fill = Array.sub lf_off 0 (max 1 nb) in
    for p = 0 to deg - 1 do
      let v = items.(p) in
      for k = adj_ptr.(v) to adj_ptr.(v + 1) - 1 do
        let a = adj_arc.(k) in
        if a land 1 = 0 then begin
          let b = bin_of.(heads.(a)) in
          let l = fill.(b) in
          fill.(b) <- l + 1;
          lf_pos.(l) <- p;
          lf_of_arc.(a) <- l;
          tr.(tr_off.(b) + tr_cap.(b) + l - lf_off.(b)) <- costs.(a)
        end
      done
    done;
    for b = 0 to nb - 1 do
      let o = tr_off.(b) in
      for i = tr_cap.(b) - 1 downto 1 do
        let x = tr.(o + (2 * i)) and y = tr.(o + (2 * i) + 1) in
        tr.(o + i) <- (if y < x then y else x)
      done
    done;
    let fen = Array.make (deg + 1) 0 in
    for i = 1 to deg do
      fen.(i) <- i land -i
    done;
    let tt_cap = pow2_at_least (max 1 nb) in
    (* no flow yet: a bin's only residual arcs are those to the sink *)
    let bl_off = Array.make (nb + 1) 0 and bl_len = Array.make nb 0 in
    for b = 0 to nb - 1 do
      let v = bins.(b) in
      bl_off.(b + 1) <- bl_off.(b) + adj_ptr.(v + 1) - adj_ptr.(v)
    done;
    let bl_slot = Array.make (max 1 bl_off.(nb)) 0 and slot_of = Array.make t.m (-1) in
    for b = 0 to nb - 1 do
      let v = bins.(b) in
      for k = adj_ptr.(v) to adj_ptr.(v + 1) - 1 do
        let a = adj_arc.(k) in
        slot_of.(a) <- k;
        if a land 1 = 0 then begin
          bl_slot.(bl_off.(b) + bl_len.(b)) <- k;
          bl_len.(b) <- bl_len.(b) + 1
        end
      done
    done;
    Some
      {
        items; src_arc; pos_of; bin_of; bins;
        alive = Array.make deg true;
        fen; lf_off; lf_pos; lf_of_arc; tr_off; tr_cap; tr;
        nx = Array.make nb max_int;
        nx0 = Array.make nb max_int;
        tt = Array.make (2 * tt_cap) max_int;
        tt_cap; bl_off; bl_len; bl_slot; slot_of;
        dirty = Array.make nb 0; n_dirty = 0; in_dirty = Array.make nb false;
        moved = Array.make nb 0; n_moved = 0; in_moved = Array.make nb false;
        regs = Array.make 2 0.0;
        dq = ref 0.0; vq = ref 0;
        sweeping = false;
      }
  end

let fen_remove f p =
  let i = ref (p + 1) in
  while !i < Array.length f do
    f.(!i) <- f.(!i) - 1;
    i := !i + (!i land - !i)
  done

(* alive positions in [0, p] *)
let fen_prefix f p =
  let s = ref 0 and i = ref (p + 1) in
  while !i > 0 do
    s := !s + f.(!i);
    i := !i - (!i land - !i)
  done;
  !s

let set_nx sw b x =
  sw.nx.(b) <- x;
  let tt = sw.tt in
  let i = ref (sw.tt_cap + b) in
  tt.(!i) <- x;
  while !i > 1 do
    i := !i lsr 1;
    let l = tt.(2 * !i) and r = tt.((2 * !i) + 1) in
    tt.(!i) <- (if r < l then r else l)
  done

let mark_dirty sw b =
  if b >= 0 && not sw.in_dirty.(b) then begin
    sw.in_dirty.(b) <- true;
    sw.dirty.(sw.n_dirty) <- b;
    sw.n_dirty <- sw.n_dirty + 1
  end

let mark_moved sw b =
  if not sw.in_moved.(b) then begin
    sw.in_moved.(b) <- true;
    sw.moved.(sw.n_moved) <- b;
    sw.n_moved <- sw.n_moved + 1
  end

(* First live leaf of bin [b] (a finite cost): the first item that
   relaxes [b] while its label is infinite. *)
let first_live sw b =
  let o = sw.tr_off.(b) and cap = sw.tr_cap.(b) and tr = sw.tr in
  if not (tr.(o + 1) < infinity) then max_int
  else begin
    let i = ref 1 in
    while !i < cap do
      i := if tr.(o + (2 * !i)) < infinity then 2 * !i else (2 * !i) + 1
    done;
    sw.lf_pos.(sw.lf_off.(b) + !i - cap)
  end

(* First sweep position after [cur] whose item relaxes bin [b] under the
   current labels: the leftmost leaf past [cur] whose relaxation value
   beats [dist b -. 1e-12].  By monotonicity a subtree holds one iff its
   minimum does, so the walk moves right past failing subtrees and
   descends into the first passing one. *)
let next_relaxing sw pot dist ~p_item b cur =
  let lo0 = sw.lf_off.(b) and hi0 = sw.lf_off.(b + 1) in
  let lo = ref lo0 and hi = ref hi0 in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if sw.lf_pos.(mid) <= cur then lo := mid + 1 else hi := mid
  done;
  if !lo >= hi0 then max_int
  else begin
    let o = sw.tr_off.(b) and cap = sw.tr_cap.(b) and tr = sw.tr in
    let v = sw.bins.(b) in
    let p = pot.(p_item) and pb = pot.(v) and thr = dist.(v) -. 1e-12 in
    let i = ref (cap + !lo - lo0) and res = ref (-2) in
    while !res = -2 do
      (* the generic core's relaxation value for an arc of this cost *)
      let rc = tr.(o + !i) +. p -. pb in
      let rc = if rc < 0.0 then 0.0 else rc in
      if 0.0 +. rc < thr then begin
        if !i >= cap then res := !i - cap else i := 2 * !i
      end
      else begin
        while !i land 1 = 1 do
          i := !i lsr 1
        done;
        if !i = 0 then res := -1 else incr i
      end
    done;
    if !res < 0 then max_int else sw.lf_pos.(lo0 + !res)
  end

(* The generic relaxation of [v]'s residual arcs at label [regs.(r_d)]
   and potential [regs.(r_pv)]; in the zero phase a relabelled bin is
   marked for a new search.  A bin walks only its live slots, in CSR
   order, instead of one mostly dead reverse arc per candidate. *)
let sweep_scan t s sw pot v =
  let d = sw.regs.(r_d) and pv = sw.regs.(r_pv) in
  let dist = s.dist and heads = t.heads and caps = t.caps and costs = t.costs in
  let b = sw.bin_of.(v) in
  let live = b >= 0 in
  let lo = if live then sw.bl_off.(b) else t.adj_ptr.(v) in
  let hi = if live then lo + sw.bl_len.(b) - 1 else t.adj_ptr.(v + 1) - 1 in
  for j = lo to hi do
    let a = t.adj_arc.(if live then sw.bl_slot.(j) else j) in
    if caps.(a) > 0 then begin
      let u = heads.(a) in
      let rc = costs.(a) +. pv -. pot.(u) in
      let rc = if rc < 0.0 then 0.0 else rc in
      let nd = d +. rc in
      if nd < dist.(u) -. 1e-12 then begin
        if s.pred_arc.(u) < 0 && dist.(u) = infinity then touch s u;
        dist.(u) <- nd;
        s.pred_arc.(u) <- a;
        rheap_push s.heap (key_of_float nd) nd u;
        if sw.sweeping then mark_dirty sw sw.bin_of.(u)
      end
    end
  done

(* Pop and scan as the generic core does until the sink settles or the
   heap is empty; with [zero_only], stop instead once the zero-key
   bucket is empty, leaving the floor where it is.  True iff the sink
   settled. *)
let sweep_settle t s sw pot ~sink ~zero_only =
  let heap = s.heap and dist = s.dist and scanned = s.scanned in
  let sink_done = ref false in
  while
    (not !sink_done) && ((not zero_only) || heap.blen.(0) > 0) && rheap_pop heap sw.dq sw.vq
  do
    let v = !(sw.vq) and d = !(sw.dq) in
    if d <= dist.(v) +. 1e-12 && not scanned.(v) then begin
      scanned.(v) <- true;
      s.scan_order.(s.n_scanned) <- v;
      s.n_scanned <- s.n_scanned + 1;
      if v = sink then sink_done := true
      else begin
        sw.regs.(r_d) <- d;
        sw.regs.(r_pv) <- pot.(v);
        sweep_scan t s sw pot v
      end
    end
  done;
  !sink_done

(* One unit moved along path arc [a]: if it runs item -> bin, the bin's
   reverse arc opens and its slot joins the bin's live slots; if it runs
   bin -> item (a reverse arc), that slot closes. *)
let sweep_track t sw a =
  if a land 1 = 0 then begin
    let b = sw.bin_of.(t.heads.(a)) in
    if b >= 0 then begin
      let k = sw.slot_of.(a lxor 1) and o = sw.bl_off.(b) in
      let j = ref (o + sw.bl_len.(b)) in
      while !j > o && sw.bl_slot.(!j - 1) > k do
        sw.bl_slot.(!j) <- sw.bl_slot.(!j - 1);
        decr j
      done;
      sw.bl_slot.(!j) <- k;
      sw.bl_len.(b) <- sw.bl_len.(b) + 1
    end
  end
  else begin
    let b = sw.bin_of.(t.heads.(a lxor 1)) in
    if b >= 0 then begin
      let k = sw.slot_of.(a) and o = sw.bl_off.(b) in
      let last = o + sw.bl_len.(b) - 1 in
      let j = ref o in
      while sw.bl_slot.(!j) <> k do
        incr j
      done;
      Array.blit sw.bl_slot (!j + 1) sw.bl_slot !j (last - !j);
      sw.bl_len.(b) <- sw.bl_len.(b) - 1
    end
  end

(* An item got its unit: drop its arcs from the bins' trees. *)
let sweep_assign t sw v =
  let p = sw.pos_of.(v) in
  sw.alive.(p) <- false;
  fen_remove sw.fen p;
  for k = t.adj_ptr.(v) to t.adj_ptr.(v + 1) - 1 do
    let a = t.adj_arc.(k) in
    if a land 1 = 0 then begin
      let b = sw.bin_of.(t.heads.(a)) in
      let o = sw.tr_off.(b) and tr = sw.tr in
      let i = ref (sw.tr_cap.(b) + sw.lf_of_arc.(a) - sw.lf_off.(b)) in
      tr.(o + !i) <- infinity;
      while !i > 1 do
        i := !i lsr 1;
        let x = tr.(o + (2 * !i)) and y = tr.(o + (2 * !i) + 1) in
        tr.(o + !i) <- (if y < x then y else x)
      done;
      if sw.nx0.(b) = p then sw.nx0.(b) <- first_live sw b;
      mark_moved sw b
    end
  done

(* The augmentation loop of [augment], replayed over the sweep.  Returns
   the running totals and whether the shared item potential split (the
   sink settled before the last item with a label that moves the
   scanned items' potential), in which case the per-item potentials are
   already written out and the generic core must finish the solve. *)
let sweep_run t sw ~pot ~source ~sink ~amount =
  let s = scratch_of t in
  let dist = s.dist and pred_arc = s.pred_arc and scanned = s.scanned in
  let heads = t.heads and caps = t.caps and costs = t.costs in
  let n_items = Array.length sw.items in
  for b = 0 to Array.length sw.bins - 1 do
    sw.nx0.(b) <- first_live sw b;
    set_nx sw b sw.nx0.(b)
  done;
  let n_alive = ref n_items in
  let total_flow = ref 0 and total_cost = ref 0.0 in
  let continue = ref true and split = ref false in
  while !continue && !total_flow < amount do
    for i = 0 to s.n_touched - 1 do
      let v = s.touched.(i) in
      dist.(v) <- infinity;
      pred_arc.(v) <- -1;
      scanned.(v) <- false
    done;
    s.n_touched <- 0;
    s.n_scanned <- 0;
    rheap_clear s.heap;
    for k = 0 to sw.n_moved - 1 do
      let b = sw.moved.(k) in
      sw.in_moved.(b) <- false;
      set_nx sw b sw.nx0.(b)
    done;
    sw.n_moved <- 0;
    (* the source settles first; its scan is implicit *)
    dist.(source) <- 0.0;
    touch s source;
    scanned.(source) <- true;
    s.scan_order.(0) <- source;
    s.n_scanned <- 1;
    (* zero phase: the items that relax something, in sweep order, each
       followed by the zero-key vertices it reaches *)
    let sink_done = ref false and processed = ref 0 and last = ref (-1) in
    sw.sweeping <- true;
    while (not !sink_done) && sw.tt.(1) < max_int do
      let q = sw.tt.(1) in
      let v = sw.items.(q) in
      incr processed;
      last := q;
      dist.(v) <- 0.0;
      pred_arc.(v) <- sw.src_arc.(q);
      touch s v;
      scanned.(v) <- true;
      s.scan_order.(s.n_scanned) <- v;
      s.n_scanned <- s.n_scanned + 1;
      (* bins that had [q] as their next item need a new search *)
      for k = t.adj_ptr.(v) to t.adj_ptr.(v + 1) - 1 do
        let a = t.adj_arc.(k) in
        if a land 1 = 0 then begin
          let b = sw.bin_of.(heads.(a)) in
          if sw.nx.(b) = q then mark_dirty sw b
        end
      done;
      sw.regs.(r_d) <- 0.0;
      sw.regs.(r_pv) <- pot.(source);
      sweep_scan t s sw pot v;
      sink_done := sweep_settle t s sw pot ~sink ~zero_only:true;
      for k = 0 to sw.n_dirty - 1 do
        let b = sw.dirty.(k) in
        sw.in_dirty.(b) <- false;
        if not !sink_done then begin
          set_nx sw b (next_relaxing sw pot dist ~p_item:source b q);
          mark_moved sw b
        end
      done;
      sw.n_dirty <- 0
    done;
    sw.sweeping <- false;
    let item_scans = if !sink_done then fen_prefix sw.fen !last else !n_alive in
    if not !sink_done then sink_done := sweep_settle t s sw pot ~sink ~zero_only:false;
    let skips = item_scans - !processed in
    Rc_obs.Metrics.add m_scanned (s.n_scanned + skips);
    Rc_obs.Metrics.add m_sweep_skips skips;
    if not !sink_done then continue := false
    else begin
      let ds = dist.(sink) in
      let p_old = pot.(source) in
      for i = 0 to s.n_scanned - 1 do
        let v = s.scan_order.(i) in
        let p = sw.pos_of.(v) in
        if p < 0 || not sw.alive.(p) then pot.(v) <- pot.(v) +. dist.(v) -. ds
      done;
      (* an item settles at 0.0 with the source's potential, so a
         scanned item's new potential is the source's *)
      let p_new = pot.(source) in
      let bottleneck = ref (amount - !total_flow) in
      let v = ref sink and first = ref (-1) in
      while !v <> source do
        let a = pred_arc.(!v) in
        if caps.(a) < !bottleneck then bottleneck := caps.(a);
        let u = heads.(a lxor 1) in
        if u = source then first := !v;
        v := u
      done;
      let f = !bottleneck in
      let v = ref sink in
      while !v <> source do
        let a = pred_arc.(!v) in
        caps.(a) <- caps.(a) - f;
        caps.(a lxor 1) <- caps.(a lxor 1) + f;
        total_cost := !total_cost +. (float_of_int f *. costs.(a));
        sweep_track t sw a;
        v := heads.(a lxor 1)
      done;
      total_flow := !total_flow + f;
      Rc_obs.Metrics.incr m_augmentations;
      Rc_obs.Metrics.add m_flow_units f;
      pot.(!first) <- p_new;
      sweep_assign t sw !first;
      if item_scans < !n_alive
         && Int64.bits_of_float p_new <> Int64.bits_of_float p_old
      then begin
        (* the items past [last] were not scanned and keep [p_old] *)
        for p = 0 to n_items - 1 do
          if sw.alive.(p) then pot.(sw.items.(p)) <- (if p <= !last then p_new else p_old)
        done;
        split := true;
        continue := false
      end;
      decr n_alive
    end
  done;
  if not !split then
    for p = 0 to n_items - 1 do
      if sw.alive.(p) then pot.(sw.items.(p)) <- pot.(source)
    done;
  (!total_flow, !total_cost, !split)

let initial_potentials t source =
  let has_negative = ref false in
  for a = 0 to t.m - 1 do
    if t.caps.(a) > 0 && t.costs.(a) < 0.0 then has_negative := true
  done;
  if !has_negative then begin
    Rc_obs.Metrics.incr m_bf_runs;
    bellman_ford_potentials t source
  end
  else Array.make t.n 0.0

let solve ?amount t ~source ~sink =
  let pot = initial_potentials t source in
  augment ?amount t ~pot ~source ~sink

let solve_warm ?amount t ~potentials ~source ~sink =
  augment ?amount t ~pot:potentials ~source ~sink

let solve_unit_supply ?(amount = max_int) t ~potentials ~source ~sink =
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Mcmf.solve: vertex out of range";
  if Array.length potentials <> t.n then invalid_arg "Mcmf: potentials length mismatch";
  freeze t;
  match sweep_build t ~pot:potentials ~source ~sink with
  | None -> augment ~amount t ~pot:potentials ~source ~sink
  | Some sw ->
      let flow, cost, split = sweep_run t sw ~pot:potentials ~source ~sink ~amount in
      if split then augment ~amount ~flow0:flow ~cost0:cost t ~pot:potentials ~source ~sink
      else begin
        Rc_obs.Metrics.incr m_solves;
        { flow; cost }
      end

let flow_on t a =
  if a < 0 || a >= t.m then invalid_arg "Mcmf.flow_on: bad arc";
  (* flow on forward arc = residual capacity of its reverse arc *)
  t.caps.(a lxor 1)

let iter_residual t f =
  for a = 0 to t.m - 1 do
    if t.caps.(a) > 0 then begin
      (* tail of arc a is the head of its partner *)
      let src = t.heads.(a lxor 1) in
      f ~src ~dst:t.heads.(a) ~cost:t.costs.(a)
    end
  done

let n_vertices t = t.n
