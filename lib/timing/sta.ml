open Rc_netlist

type t = {
  src : int array;
  dst : int array;
  d_max : float array;
  d_min : float array;
  critical : float;
}

(* One cone's sinks (flip-flop indices) with their D_max/D_min, in
   first-touch order. *)
type cone = { sinks : int array; cmax : float array; cmin : float array }

let empty_cone = { sinks = [||]; cmax = [||]; cmin = [||] }

let m_analyses = Rc_obs.Metrics.counter "timing.sta.analyses"
let m_pairs = Rc_obs.Metrics.counter "timing.sta.pairs"
let m_cone_sinks = Rc_obs.Metrics.histogram "timing.sta.cone_sinks"
let m_replays = Rc_obs.Metrics.counter "timing.sta.replays"
let m_cone_recomputes = Rc_obs.Metrics.counter "timing.sta.cone_recomputes"
let m_cone_reuses = Rc_obs.Metrics.counter "timing.sta.cone_reuses"
let m_dirty_cells = Rc_obs.Metrics.counter "timing.sta.dirty_cells"

(* below ~64 cones the traversals are cheaper than waking the pool *)
let par_cutoff = 64

(* Deterministic per-cell process-variation factor in [0.9, 1.1]. *)
let gate_factor c =
  let r = Rc_util.Rng.create ((c * 2654435761) + 97) in
  0.9 +. Rc_util.Rng.float r 0.2

(* The timing graph: the fanout structure, gate variation factors and
   the topological index that orders cone relaxation, none of which
   depends on cell positions, plus each fanout edge's wire delay.  Cell
   d's fanout edges (to logic cells and flip-flops) are the slots
   [optr.(d)] to [optr.(d + 1) - 1], in the reverse of netlist order
   (nets, then each net's sinks) — the order a cone relaxes them in, so
   it fixes each cone's first-touch order.  [target] and [load] are
   netlist structure; [wire] is the Elmore point delay at the positions
   of the last (re)evaluation — the only position-dependent quantity in
   the whole timing graph. *)
type structure = {
  tech : Rc_tech.Tech.t;
  n : int;
  optr : int array;
  target : int array;
  load : float array;
  wire : float array;
  gmax : float array;
  gmin : float array;
  topo_idx : int array;
  ffs : int array;
  ff_idx : int array;  (* cell id -> flip-flop index, -1 off flip-flops *)
}

let build_structure tech netlist ~positions =
  let n = Netlist.n_cells netlist in
  if Array.length positions <> n then invalid_arg "Sta.analyze: positions length mismatch";
  let pos c = positions.(c) in
  (* out-edges: targets restricted to logic and flip-flops; each
     driver's slots are filled from its end down *)
  let timed s =
    match Netlist.kind netlist s with Logic | Flipflop -> true | Input_pad | Output_pad -> false
  in
  let optr = Array.make (n + 1) 0 in
  Netlist.iter_nets netlist (fun _ net ->
      Array.iter (fun s -> if timed s then optr.(net.driver + 1) <- optr.(net.driver + 1) + 1) net.sinks);
  for c = 1 to n do
    optr.(c) <- optr.(c) + optr.(c - 1)
  done;
  let ne = optr.(n) in
  let target = Array.make ne 0 and load = Array.make ne 0.0 and wire = Array.make ne 0.0 in
  let cursor = Array.sub optr 1 n in
  Netlist.iter_nets netlist (fun _ net ->
      Array.iter
        (fun s ->
          if timed s then begin
            let k = cursor.(net.driver) - 1 in
            cursor.(net.driver) <- k;
            target.(k) <- s;
            load.(k) <- Elmore.sink_load tech netlist s;
            wire.(k) <- Elmore.point_delay tech (pos net.driver) (pos s) ~load:load.(k)
          end)
        net.sinks);
  (* gate contribution when the signal leaves a logic cell *)
  let gmax = Array.make n 0.0 and gmin = Array.make n 0.0 in
  for c = 0 to n - 1 do
    if Netlist.kind netlist c = Logic then begin
      let f = gate_factor c in
      gmax.(c) <- tech.Rc_tech.Tech.gate_delay *. f;
      gmin.(c) <- tech.Rc_tech.Tech.gate_delay_min *. f
    end
  done;
  (* topological index of logic cells *)
  let logic_graph = Rc_graph.Digraph.create n in
  for c = 0 to n - 1 do
    if Netlist.kind netlist c = Logic then
      for k = optr.(c) to optr.(c + 1) - 1 do
        if Netlist.kind netlist target.(k) = Logic then
          Rc_graph.Digraph.add_edge logic_graph c target.(k) 0.0
      done
  done;
  let topo_idx =
    match Rc_graph.Dag.topological_order logic_graph with
    | None -> invalid_arg "Sta.analyze: combinational cycle"
    | Some order ->
        let idx = Array.make n 0 in
        Array.iteri (fun i v -> idx.(v) <- i) order;
        idx
  in
  let ffs = Netlist.flip_flops netlist in
  let ff_idx = Array.make n (-1) in
  Array.iteri (fun k f -> ff_idx.(f) <- k) ffs;
  { tech; n; optr; target; load; wire; gmax; gmin; topo_idx; ffs; ff_idx }

(* Flat cone-stamp arena: the per-domain scratch of cone evaluation as
   six parallel arrays over cell ids, valid entries distinguished by a
   per-run token so the same arena is reused across cones, analyses,
   and flow iterations without any clearing, plus the current cone's
   sinks in first-touch order.  Tokens are purely domain-local, so reuse
   cannot change any result bit. *)
type arena = {
  dist_max : float array;
  dist_min : float array;
  stamp : int array;
  rmax : float array;
  rmin : float array;
  rstamp : int array;
  order : int array;  (* the cone's sink cells, first touch first *)
  mutable n_order : int;
  mutable a_token : int;
}

let make_arena st () =
  let n = st.n in
  {
    dist_max = Array.make n neg_infinity;
    dist_min = Array.make n infinity;
    stamp = Array.make n (-1);
    rmax = Array.make n neg_infinity;
    rmin = Array.make n infinity;
    rstamp = Array.make n (-1);
    order = Array.make (Array.length st.ffs) 0;
    n_order = 0;
    a_token = 0;
  }

(* Evaluate the cone of launching FF [k], writing its sinks and their
   max/min delays — in first-touch order — into [entries.(k)]. [visit] is
   called once per cell whose position the cone's delays depend on
   (first touch of each target; the launching FF is the caller's to
   add): the support set recorded by incremental sessions. *)
let run_cone st arena ~visit entries k =
  let f = st.ffs.(k) in
  arena.a_token <- arena.a_token + 1;
  let tok = arena.a_token in
  let dist_max = arena.dist_max
  and dist_min = arena.dist_min
  and stamp = arena.stamp
  and rmax = arena.rmax
  and rmin = arena.rmin
  and rstamp = arena.rstamp
  and order = arena.order in
  arena.n_order <- 0;
  let record g dmax dmin =
    if rstamp.(g) <> tok then begin
      rstamp.(g) <- tok;
      rmax.(g) <- dmax;
      rmin.(g) <- dmin;
      order.(arena.n_order) <- g;
      arena.n_order <- arena.n_order + 1;
      visit g
    end
    else begin
      rmax.(g) <- Float.max rmax.(g) dmax;
      rmin.(g) <- Float.min rmin.(g) dmin
    end
  in
  let heap = Rc_graph.Heap.create () in
  let touch c dmax dmin =
    if stamp.(c) <> tok then begin
      stamp.(c) <- tok;
      dist_max.(c) <- dmax;
      dist_min.(c) <- dmin;
      Rc_graph.Heap.push heap (float_of_int st.topo_idx.(c)) c;
      visit c
    end
    else begin
      if dmax > dist_max.(c) then dist_max.(c) <- dmax;
      if dmin < dist_min.(c) then dist_min.(c) <- dmin
    end
  in
  let optr = st.optr and target = st.target and wire = st.wire and ff_idx = st.ff_idx in
  (* launch: straight wire from FF to each of its sinks *)
  for e = optr.(f) to optr.(f + 1) - 1 do
    let t = target.(e) and w = wire.(e) in
    if ff_idx.(t) >= 0 then record t w w else touch t w w
  done;
  (* cone relaxation in topological order: each logic cell is popped
     after all its in-cone predecessors (their topo indices are
     smaller), so its dist values are final when processed *)
  let rec drain () =
    match Rc_graph.Heap.pop_min heap with
    | None -> ()
    | Some (_, c) ->
        let dmax = dist_max.(c) +. st.gmax.(c) and dmin = dist_min.(c) +. st.gmin.(c) in
        for e = optr.(c) to optr.(c + 1) - 1 do
          let t = target.(e) and w = wire.(e) in
          if ff_idx.(t) >= 0 then record t (dmax +. w) (dmin +. w)
          else touch t (dmax +. w) (dmin +. w)
        done;
        drain ()
  in
  drain ();
  (* histogram merge is a commutative sum, so recording from inside
     the parallel region keeps the snapshot job-count independent *)
  let m = arena.n_order in
  if Rc_obs.Metrics.enabled () then Rc_obs.Metrics.observe m_cone_sinks m;
  let sinks = Array.make m 0 and cmax = Array.make m 0.0 and cmin = Array.make m 0.0 in
  for q = 0 to m - 1 do
    let g = order.(q) in
    sinks.(q) <- st.ff_idx.(g);
    cmax.(q) <- rmax.(g);
    cmin.(q) <- rmin.(g)
  done;
  entries.(k) <- { sinks; cmax; cmin }

(* Concatenate the cones into the flat result: launching flip-flops in
   order, each cone's sinks in first-touch order.  A cone lists each
   sink once and launches from its own flip-flop, so every pair appears
   once.  The cones are the same whether recomputed or replayed from an
   incremental session, for any job count, so the arrays are too. *)
let assemble entries =
  let np = Array.fold_left (fun acc c -> acc + Array.length c.sinks) 0 entries in
  let src = Array.make np 0 and dst = Array.make np 0 in
  let d_max = Array.make np 0.0 and d_min = Array.make np 0.0 in
  let p = ref 0 in
  Array.iteri
    (fun k c ->
      let m = Array.length c.sinks in
      Array.fill src !p m k;
      Array.blit c.sinks 0 dst !p m;
      Array.blit c.cmax 0 d_max !p m;
      Array.blit c.cmin 0 d_min !p m;
      p := !p + m)
    entries;
  let critical = Array.fold_left Float.max 0.0 d_max in
  Rc_obs.Metrics.incr m_analyses;
  Rc_obs.Metrics.add m_pairs np;
  { src; dst; d_max; d_min; critical }

let analyze tech netlist ~positions =
  let st = build_structure tech netlist ~positions in
  let nffs = Array.length st.ffs in
  let entries = Array.make nffs empty_cone in
  Rc_par.Pool.for_with ~min_items:par_cutoff ~init:(make_arena st) nffs (fun arena k ->
      run_cone st arena ~visit:ignore entries k);
  assemble entries

(* --- Incremental sessions: keep the structure, wires, and per-cone
   entries alive across analyses and re-evaluate only the cones whose
   support cells moved. --- *)

type sstate = {
  st : structure;
  prev : Rc_geom.Point.t array;  (* positions of the last analysis *)
  entries : cone array;
  support : int array array;  (* cone -> cells its delays depend on *)
  dirty : bool array;  (* scratch, length n *)
  dirty_cone : bool array;  (* scratch, length nffs *)
  arenas : arena Rc_par.Pool.keepalive;  (* per-domain slabs, kept across calls *)
  mutable last : t;
}

type session = {
  tech : Rc_tech.Tech.t;
  netlist : Netlist.t;
  mutable state : sstate option;
}

let make_session tech netlist = { tech; netlist; state = None }

(* Poison the remembered position of each cell so the next analysis
   treats it as moved even if its coordinates compare equal (NaN never
   equals anything, including itself).  Re-evaluating a cone whose
   inputs did not change reproduces its entries bit-identically, so
   this only ever costs time, never results. *)
let invalidate_cells sess cells =
  match sess.state with
  | None -> ()
  | Some s ->
      let n = Array.length s.prev in
      let poison = { Rc_geom.Point.x = Float.nan; y = Float.nan } in
      List.iter (fun c -> if c >= 0 && c < n then s.prev.(c) <- poison) cells

let cold_analyze sess ~positions =
  let st = build_structure sess.tech sess.netlist ~positions in
  let nffs = Array.length st.ffs in
  let entries = Array.make nffs empty_cone in
  let support = Array.make nffs [||] in
  let arenas = Rc_par.Pool.keepalive () in
  Rc_par.Pool.for_with ~min_items:par_cutoff ~reuse:arenas ~init:(make_arena st) nffs
    (fun arena k ->
      let vis = ref [ st.ffs.(k) ] in
      run_cone st arena ~visit:(fun c -> vis := c :: !vis) entries k;
      support.(k) <- Array.of_list !vis);
  let result = assemble entries in
  sess.state <-
    Some
      {
        st;
        prev = Array.copy positions;
        entries;
        support;
        dirty = Array.make st.n false;
        dirty_cone = Array.make nffs false;
        arenas;
        last = result;
      };
  result

let analyze_batch sess ~positions =
  match sess.state with
  | None -> cold_analyze sess ~positions
  | Some s ->
      let st = s.st in
      if Array.length positions <> st.n then
        invalid_arg "Sta.analyze_batch: positions length mismatch";
      let dirty = s.dirty in
      let n_dirty = ref 0 in
      for c = 0 to st.n - 1 do
        let p = positions.(c) and q = s.prev.(c) in
        let d = p.Rc_geom.Point.x <> q.Rc_geom.Point.x || p.Rc_geom.Point.y <> q.Rc_geom.Point.y in
        dirty.(c) <- d;
        if d then incr n_dirty
      done;
      if !n_dirty = 0 then begin
        Rc_obs.Metrics.incr m_replays;
        s.last
      end
      else begin
        Rc_obs.Metrics.add m_dirty_cells !n_dirty;
        (* one batch region for the whole dirty pass: the wire refresh
           and the cone recompute publish sub-jobs to the same captive
           workers instead of opening two pool regions *)
        Rc_par.Pool.region (fun () ->
            (* refresh the wire delays touched by a moved endpoint; each
               cell owns its out-edges, so the writes never collide *)
            Rc_par.Pool.for_ ~min_items:par_cutoff st.n (fun v ->
                let dv = dirty.(v) in
                for e = st.optr.(v) to st.optr.(v + 1) - 1 do
                  let t = st.target.(e) in
                  if dv || dirty.(t) then
                    st.wire.(e) <-
                      Elmore.point_delay st.tech positions.(v) positions.(t) ~load:st.load.(e)
                done);
            (* a cone is dirty when any cell of its support moved: each
               cone scans its own support and stops at the first moved
               cell, which after a large move is the first it reads *)
            let nffs = Array.length st.ffs in
            Rc_par.Pool.for_ ~min_items:par_cutoff nffs (fun k ->
                let sup = s.support.(k) in
                let q = ref 0 in
                while !q < Array.length sup && not dirty.(sup.(!q)) do
                  incr q
                done;
                s.dirty_cone.(k) <- !q < Array.length sup);
            let n_dirty_cones = ref 0 in
            for k = 0 to nffs - 1 do
              if s.dirty_cone.(k) then incr n_dirty_cones
            done;
            let dirty_cones = Array.make !n_dirty_cones 0 in
            let j = ref 0 in
            for k = 0 to nffs - 1 do
              if s.dirty_cone.(k) then begin
                dirty_cones.(!j) <- k;
                incr j
              end
            done;
            Rc_obs.Metrics.add m_cone_recomputes !n_dirty_cones;
            Rc_obs.Metrics.add m_cone_reuses (nffs - !n_dirty_cones);
            Rc_par.Pool.for_with ~min_items:par_cutoff ~reuse:s.arenas ~init:(make_arena st)
              !n_dirty_cones
              (fun arena i -> run_cone st arena ~visit:ignore s.entries dirty_cones.(i)));
        Array.blit positions 0 s.prev 0 st.n;
        let result = assemble s.entries in
        s.last <- result;
        result
      end
