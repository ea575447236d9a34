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

let solve ~n_items ~n_bins ~capacities candidates =
  validate ~n_items ~n_bins ~capacities candidates;
  (* vertices: 0 = source, 1..n_items = items, then bins, then sink *)
  let source = 0 and sink = 1 + n_items + n_bins in
  let item_v i = 1 + i and bin_v j = 1 + n_items + j in
  let net = Mcmf.create (sink + 1) in
  for i = 0 to n_items - 1 do
    ignore (Mcmf.add_arc net ~src:source ~dst:(item_v i) ~capacity:1 ~cost:0.0)
  done;
  for j = 0 to n_bins - 1 do
    ignore (Mcmf.add_arc net ~src:(bin_v j) ~dst:sink ~capacity:capacities.(j) ~cost:0.0)
  done;
  let cand_arcs =
    List.map
      (fun c ->
        (c, Mcmf.add_arc net ~src:(item_v c.item) ~dst:(bin_v c.bin) ~capacity:1 ~cost:c.cost))
      candidates
  in
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

(* --- Cached solver: the flow epilogue re-assigns the candidate list of
   the last loop iteration, so an identical list replays the last result;
   any other list is a cold {!solve}. --- *)

type solver = {
  s_n_items : int;
  s_n_bins : int;
  s_capacities : int array;
  mutable s_last : (candidate array * result) option;
}

let m_replays = Rc_obs.Metrics.counter "netflow.assignment.replays"
let m_scratch = Rc_obs.Metrics.counter "netflow.assignment.scratch_solves"

let make_solver ~n_items ~n_bins ~capacities =
  if Array.length capacities <> n_bins then
    invalid_arg "Assignment.make_solver: capacities length mismatch";
  { s_n_items = n_items; s_n_bins = n_bins; s_capacities = Array.copy capacities;
    s_last = None }

let same_candidates (a : candidate array) (b : candidate array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : candidate) (y : candidate) -> x.item = y.item && x.bin = y.bin && x.cost = y.cost)
       a b

let solve_with solver candidates =
  let cands = Array.of_list candidates in
  let r =
    match solver.s_last with
    | Some (last, r) when same_candidates last cands ->
        Rc_obs.Metrics.incr m_replays;
        r
    | _ ->
        let r =
          solve ~n_items:solver.s_n_items ~n_bins:solver.s_n_bins
            ~capacities:solver.s_capacities candidates
        in
        Rc_obs.Metrics.incr m_scratch;
        solver.s_last <- Some (cands, r);
        r
  in
  (* a copy, so callers can't alias the cached result *)
  { r with assignment = Array.copy r.assignment }
