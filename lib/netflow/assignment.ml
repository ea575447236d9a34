type candidate = { item : int; bin : int; cost : float }

type result = { assignment : int array; total_cost : float; assigned : int }

let validate ~n_items ~n_bins ~capacities candidates =
  if Array.length capacities <> n_bins then
    invalid_arg "Assignment.solve: capacities length mismatch";
  Array.iter
    (fun cap -> if cap < 0 then invalid_arg "Assignment.solve: negative capacity")
    capacities;
  List.iter
    (fun { item; bin; cost } ->
      if item < 0 || item >= n_items || bin < 0 || bin >= n_bins then
        invalid_arg "Assignment.solve: candidate out of range";
      if cost < 0.0 then invalid_arg "Assignment.solve: negative cost")
    candidates

(* vertices: 0 = source, 1..n_items = items, then bins, then sink *)
let build ~n_items ~n_bins ~capacities candidates =
  let source = 0 in
  let item_v i = 1 + i in
  let bin_v j = 1 + n_items + j in
  let sink = 1 + n_items + n_bins in
  let net = Mcmf.create (sink + 1) in
  let item_arcs =
    Array.init n_items (fun i ->
        Mcmf.add_arc net ~src:source ~dst:(item_v i) ~capacity:1 ~cost:0.0)
  in
  let bin_arcs =
    Array.init n_bins (fun j ->
        Mcmf.add_arc net ~src:(bin_v j) ~dst:sink ~capacity:capacities.(j) ~cost:0.0)
  in
  let cand_arcs =
    List.map
      (fun c ->
        let a =
          Mcmf.add_arc net ~src:(item_v c.item) ~dst:(bin_v c.bin) ~capacity:1 ~cost:c.cost
        in
        (c, a))
      candidates
  in
  (net, source, sink, item_arcs, bin_arcs, cand_arcs)

let solve ~n_items ~n_bins ~capacities candidates =
  validate ~n_items ~n_bins ~capacities candidates;
  let net, source, sink, _, _, cand_arcs = build ~n_items ~n_bins ~capacities candidates in
  (* costs are non-negative, so the zero dual is the one {!Mcmf.solve}
     would start from *)
  let potentials = Array.make (Mcmf.n_vertices net) 0.0 in
  let outcome = Mcmf.solve_unit_supply net ~potentials ~source ~sink ~amount:n_items in
  let assignment = Array.make n_items (-1) in
  let total_cost = ref 0.0 in
  List.iter
    (fun ((c : candidate), a) ->
      if Mcmf.flow_on net a > 0 then begin
        assignment.(c.item) <- c.bin;
        total_cost := !total_cost +. c.cost
      end)
    cand_arcs;
  { assignment; total_cost = !total_cost; assigned = outcome.Mcmf.flow }

(* --- Warm-started solver: keeps the flow network of the previous solve
   alive across placement iterations so an unchanged candidate set is a
   pure replay and a mildly perturbed one only re-routes the items whose
   tapping costs actually moved. --- *)

type state = {
  net : Mcmf.t;
  source : int;
  sink : int;
  item_arcs : Mcmf.arc array;
  bin_arcs : Mcmf.arc array;
  cand_arcs : (candidate * Mcmf.arc) array;  (* insertion order of [build] *)
  pot : float array;  (* final duals of the last solve *)
  chosen : int array;  (* item -> index into cand_arcs, or -1 *)
  mutable last : result;
}

type solver = {
  s_n_items : int;
  s_n_bins : int;
  s_capacities : int array;
  mutable s_state : state option;
}

let m_replays = Rc_obs.Metrics.counter "netflow.assignment.replays"
let m_warm = Rc_obs.Metrics.counter "netflow.assignment.warm_solves"
let m_scratch = Rc_obs.Metrics.counter "netflow.assignment.scratch_solves"
let m_dirty = Rc_obs.Metrics.counter "netflow.assignment.dirty_items"

let make_solver ~n_items ~n_bins ~capacities =
  if Array.length capacities <> n_bins then
    invalid_arg "Assignment.make_solver: capacities length mismatch";
  { s_n_items = n_items; s_n_bins = n_bins; s_capacities = Array.copy capacities;
    s_state = None }

(* Read the routed flow back into a result, in candidate insertion order
   — the same traversal and summation order as {!solve}, so an identical
   chosen set yields bit-identical [total_cost]. *)
let read_result st n_items =
  let assignment = Array.make n_items (-1) in
  let total_cost = ref 0.0 and assigned = ref 0 in
  Array.fill st.chosen 0 n_items (-1);
  Array.iteri
    (fun k ((c : candidate), a) ->
      if Mcmf.flow_on st.net a > 0 then begin
        assignment.(c.item) <- c.bin;
        st.chosen.(c.item) <- k;
        total_cost := !total_cost +. c.cost
      end)
    st.cand_arcs;
  Array.iter (fun b -> if b >= 0 then incr assigned) assignment;
  let r = { assignment; total_cost = !total_cost; assigned = !assigned } in
  st.last <- r;
  r

let copy_result r = { r with assignment = Array.copy r.assignment }

let scratch solver cands =
  Rc_obs.Metrics.incr m_scratch;
  let n_items = solver.s_n_items in
  let net, source, sink, item_arcs, bin_arcs, cand_arcs =
    build ~n_items ~n_bins:solver.s_n_bins ~capacities:solver.s_capacities
      (Array.to_list cands)
  in
  let pot = Array.make (Mcmf.n_vertices net) 0.0 in
  (* all costs are non-negative, so a zero dual is feasible and this
     augmentation is step-for-step the one {!Mcmf.solve} would run — but
     [pot] ends up holding the final duals for the next warm start *)
  ignore (Mcmf.solve_warm net ~potentials:pot ~source ~sink ~amount:n_items);
  let st =
    { net; source; sink; item_arcs; bin_arcs; cand_arcs = Array.of_list cand_arcs;
      pot; chosen = Array.make n_items (-1);
      last = { assignment = [||]; total_cost = 0.0; assigned = 0 } }
  in
  solver.s_state <- Some st;
  read_result st n_items

(* cap on Klein cancellations before giving up on the warm path *)
let cancel_limit n_dirty = (4 * n_dirty) + 16

let warm solver st cands dirty n_dirty =
  let n_items = solver.s_n_items in
  (* 1. evict the routed paths of dirty items *)
  for i = 0 to n_items - 1 do
    if dirty.(i) && st.chosen.(i) >= 0 then begin
      let c, a = st.cand_arcs.(st.chosen.(i)) in
      Mcmf.unroute st.net st.item_arcs.(i) 1;
      Mcmf.unroute st.net a 1;
      Mcmf.unroute st.net st.bin_arcs.(c.bin) 1
    end
  done;
  (* 2. apply the cost deltas *)
  Array.iteri
    (fun k ((old : candidate), a) ->
      let c = cands.(k) in
      if c.cost <> old.cost then begin
        Mcmf.set_cost st.net a c.cost;
        st.cand_arcs.(k) <- (c, a)
      end)
    st.cand_arcs;
  (* 3. the retained (clean) flow may have lost optimality under the new
     costs; restore it, or bail out to a scratch solve *)
  match Mcmf.cancel_negative_cycles ~limit:(cancel_limit n_dirty) st.net with
  | None -> scratch solver cands
  | Some _ ->
      Rc_obs.Metrics.incr m_warm;
      Rc_obs.Metrics.add m_dirty n_dirty;
      (* 4. fresh feasible duals for the edited residual *)
      let pot = Mcmf.feasible_potentials st.net ~source:st.source in
      Array.blit pot 0 st.pot 0 (Array.length pot);
      (* 5. re-route only the evicted units *)
      ignore
        (Mcmf.solve_warm st.net ~potentials:st.pot ~source:st.source ~sink:st.sink
           ~amount:n_items);
      read_result st n_items

let warm_check_enabled () =
  match Sys.getenv_opt "ROTARY_WARM_CHECK" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let solve_with ?(warm_threshold = 0.25) solver candidates =
  let n_items = solver.s_n_items in
  validate ~n_items ~n_bins:solver.s_n_bins ~capacities:solver.s_capacities candidates;
  let cands = Array.of_list candidates in
  (* every branch returns a copy so callers can't alias the cached state *)
  copy_result
    (match solver.s_state with
    | Some st
      when Array.length st.cand_arcs = Array.length cands
           && Array.for_all2
                (fun ((old : candidate), _) (c : candidate) ->
                  old.item = c.item && old.bin = c.bin)
                st.cand_arcs cands ->
        let dirty = Array.make n_items false in
        Array.iteri
          (fun k ((old : candidate), _) ->
            if cands.(k).cost <> old.cost then dirty.(old.item) <- true)
          st.cand_arcs;
        let n_dirty = Array.fold_left (fun n d -> if d then n + 1 else n) 0 dirty in
        if n_dirty = 0 then begin
          Rc_obs.Metrics.incr m_replays;
          st.last
        end
        else if float_of_int n_dirty > warm_threshold *. float_of_int (max 1 n_items)
        then scratch solver cands
        else begin
          let r = warm solver st cands dirty n_dirty in
          if warm_check_enabled () then begin
            let cold =
              solve ~n_items ~n_bins:solver.s_n_bins ~capacities:solver.s_capacities
                candidates
            in
            if cold.assignment <> r.assignment || cold.total_cost <> r.total_cost then
              failwith "Assignment.solve_with: warm solve diverged from cold solve"
          end;
          r
        end
    | _ -> scratch solver cands)
