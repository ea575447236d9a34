open Rc_netlist

type adjacency = { src_ff : int; dst_ff : int; d_max : float; d_min : float }

type t = { pairs : adjacency list; critical : float }

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

(* One fanout edge. [target] and [load] are netlist structure; [wire] is
   the Elmore point delay at the positions of the last (re)evaluation —
   the only position-dependent quantity in the whole timing graph. *)
type oedge = { target : int; load : float; mutable wire : float }

(* Everything about the timing graph that does not depend on cell
   positions: fanout structure, gate variation factors, and the
   topological index that orders cone relaxation. *)
type structure = {
  tech : Rc_tech.Tech.t;
  netlist : Netlist.t;
  n : int;
  out : oedge list array;
  gmax : float array;
  gmin : float array;
  topo_idx : int array;
  ffs : int array;
}

let build_structure tech netlist ~positions =
  let n = Netlist.n_cells netlist in
  if Array.length positions <> n then invalid_arg "Sta.analyze: positions length mismatch";
  let pos c = positions.(c) in
  (* out-edges: targets restricted to logic and flip-flops *)
  let out = Array.make n [] in
  Netlist.iter_nets netlist (fun _ net ->
      Array.iter
        (fun s ->
          match Netlist.kind netlist s with
          | Logic | Flipflop ->
              let load = Elmore.sink_load tech netlist s in
              let wire = Elmore.point_delay tech (pos net.driver) (pos s) ~load in
              out.(net.driver) <- { target = s; load; wire } :: out.(net.driver)
          | Input_pad | Output_pad -> ())
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
      List.iter
        (fun e ->
          if Netlist.kind netlist e.target = Logic then
            Rc_graph.Digraph.add_edge logic_graph c e.target 0.0)
        out.(c)
  done;
  let topo_idx =
    match Rc_graph.Dag.topological_order logic_graph with
    | None -> invalid_arg "Sta.analyze: combinational cycle"
    | Some order ->
        let idx = Array.make n 0 in
        Array.iteri (fun i v -> idx.(v) <- i) order;
        idx
  in
  { tech; netlist; n; out; gmax; gmin; topo_idx; ffs = Netlist.flip_flops netlist }

(* Flat cone-stamp arena: the per-domain scratch of cone evaluation as
   six parallel arrays over cell ids, valid entries distinguished by a
   per-run token so the same arena is reused across cones, analyses,
   and flow iterations without any clearing.  Tokens are purely domain-
   local, so reuse cannot change any result bit. *)
type arena = {
  dist_max : float array;
  dist_min : float array;
  stamp : int array;
  rmax : float array;
  rmin : float array;
  rstamp : int array;
  mutable a_token : int;
}

let make_arena n () =
  {
    dist_max = Array.make n neg_infinity;
    dist_min = Array.make n infinity;
    stamp = Array.make n (-1);
    rmax = Array.make n neg_infinity;
    rmin = Array.make n infinity;
    rstamp = Array.make n (-1);
    a_token = 0;
  }

(* Evaluate the cone of launching FF [k], writing its (sink, max, min)
   entries — in first-touch order — into [entries.(k)]. [visit] is
   called once per cell whose position the cone's delays depend on
   (first touch of each target; the launching FF is the caller's to
   add): the support set recorded by incremental sessions. *)
let run_cone st arena ~visit entries k =
  let netlist = st.netlist in
  let f = st.ffs.(k) in
  arena.a_token <- arena.a_token + 1;
  let tok = arena.a_token in
  let dist_max = arena.dist_max
  and dist_min = arena.dist_min
  and stamp = arena.stamp
  and rmax = arena.rmax
  and rmin = arena.rmin
  and rstamp = arena.rstamp in
  let order = ref [] in
  let record g dmax dmin =
    if rstamp.(g) <> tok then begin
      rstamp.(g) <- tok;
      rmax.(g) <- dmax;
      rmin.(g) <- dmin;
      order := g :: !order;
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
  (* launch: straight wire from FF to each of its sinks *)
  List.iter
    (fun e ->
      match Netlist.kind netlist e.target with
      | Flipflop -> record e.target e.wire e.wire
      | Logic -> touch e.target e.wire e.wire
      | _ -> ())
    st.out.(f);
  (* cone relaxation in topological order: each logic cell is popped
     after all its in-cone predecessors (their topo indices are
     smaller), so its dist values are final when processed *)
  let rec drain () =
    match Rc_graph.Heap.pop_min heap with
    | None -> ()
    | Some (_, c) ->
        let dmax = dist_max.(c) +. st.gmax.(c) and dmin = dist_min.(c) +. st.gmin.(c) in
        List.iter
          (fun e ->
            match Netlist.kind netlist e.target with
            | Flipflop -> record e.target (dmax +. e.wire) (dmin +. e.wire)
            | Logic -> touch e.target (dmax +. e.wire) (dmin +. e.wire)
            | _ -> ())
          st.out.(c);
        drain ()
  in
  drain ();
  (* histogram merge is a commutative sum, so recording from inside
     the parallel region keeps the snapshot job-count independent *)
  if Rc_obs.Metrics.enabled () then
    Rc_obs.Metrics.observe m_cone_sinks (List.length !order);
  entries.(k) <- List.rev_map (fun g -> (g, rmax.(g), rmin.(g))) !order

(* Merge per-cone entries into the adjacency list. The pairs table is
   always rebuilt with the same key-insertion sequence (launching FFs in
   order, each cone's sinks in first-touch order), so the fold order —
   and hence the list and the critical-path fold — is identical whether
   an entry was recomputed or replayed from an incremental session, for
   any job count. *)
let assemble st entries =
  let pairs = Hashtbl.create 256 in
  Array.iteri
    (fun k f ->
      List.iter (fun (g, dmax, dmin) -> Hashtbl.replace pairs (f, g) (dmax, dmin)) entries.(k))
    st.ffs;
  let pair_list =
    Hashtbl.fold
      (fun (f, g) (d_max, d_min) acc -> { src_ff = f; dst_ff = g; d_max; d_min } :: acc)
      pairs []
  in
  let critical = List.fold_left (fun acc p -> Float.max acc p.d_max) 0.0 pair_list in
  Rc_obs.Metrics.incr m_analyses;
  Rc_obs.Metrics.add m_pairs (List.length pair_list);
  { pairs = pair_list; critical }

let analyze tech netlist ~positions =
  let st = build_structure tech netlist ~positions in
  let nffs = Array.length st.ffs in
  let entries = Array.make nffs [] in
  Rc_par.Pool.for_with ~min_items:par_cutoff ~init:(make_arena st.n) nffs (fun arena k ->
      run_cone st arena ~visit:ignore entries k);
  assemble st entries

(* --- Incremental sessions: keep the structure, wires, and per-cone
   entries alive across analyses and re-evaluate only the cones whose
   support cells moved. --- *)

type sstate = {
  st : structure;
  prev : Rc_geom.Point.t array;  (* positions of the last analysis *)
  entries : (int * float * float) list array;
  cone_of_cell : int list array;  (* cell -> cones whose delays it feeds *)
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
  let entries = Array.make nffs [] in
  let visited = Array.make nffs [] in
  let arenas = Rc_par.Pool.keepalive () in
  Rc_par.Pool.for_with ~min_items:par_cutoff ~reuse:arenas ~init:(make_arena st.n) nffs
    (fun arena k ->
      let vis = ref [ st.ffs.(k) ] in
      run_cone st arena ~visit:(fun c -> vis := c :: !vis) entries k;
      visited.(k) <- !vis);
  let cone_of_cell = Array.make st.n [] in
  (* invert from the last cone down so each cell's list ends up in
     increasing cone order *)
  for k = nffs - 1 downto 0 do
    List.iter (fun c -> cone_of_cell.(c) <- k :: cone_of_cell.(c)) visited.(k)
  done;
  let result = assemble st entries in
  sess.state <-
    Some
      {
        st;
        prev = Array.copy positions;
        entries;
        cone_of_cell;
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
                List.iter
                  (fun e ->
                    if dv || dirty.(e.target) then
                      e.wire <-
                        Elmore.point_delay st.tech positions.(v) positions.(e.target)
                          ~load:e.load)
                  st.out.(v));
            (* cones reached by any dirty cell *)
            let nffs = Array.length st.ffs in
            Array.fill s.dirty_cone 0 nffs false;
            for c = 0 to st.n - 1 do
              if dirty.(c) then
                List.iter (fun k -> s.dirty_cone.(k) <- true) s.cone_of_cell.(c)
            done;
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
            Rc_par.Pool.for_with ~min_items:par_cutoff ~reuse:s.arenas ~init:(make_arena st.n)
              !n_dirty_cones
              (fun arena i -> run_cone st arena ~visit:ignore s.entries dirty_cones.(i)));
        Array.blit positions 0 s.prev 0 st.n;
        let result = assemble st s.entries in
        s.last <- result;
        result
      end

let adjacencies t = t.pairs
let critical_delay t = t.critical
