type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  x : float array;
  objective : float;
  duals : float array;
  iterations : int;
}

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
  mutable lu : Rc_sparse.Sparse_lu.t;
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
  let u = Rc_sparse.Sparse_lu.solve st.lu v in
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
  Rc_sparse.Sparse_lu.solve_transpose st.lu v

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

let m_solves = Rc_obs.Metrics.counter "lp.simplex.solves"
let m_pivots = Rc_obs.Metrics.counter "lp.simplex.pivots"
let m_refactorizations = Rc_obs.Metrics.counter "lp.simplex.refactorizations"

let refactorize st =
  Rc_obs.Metrics.incr m_refactorizations;
  match Rc_sparse.Sparse_lu.factor ~m:st.m ~cols:(basis_columns st) with
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
  let nv = Problem.n_vars problem and m = Problem.n_rows problem in
  let max_iter = 20000 + (50 * (m + nv)) in
  let ncols = nv + m + m in
  let col_rows = Array.make ncols [||] and col_vals = Array.make ncols [||] in
  let lo = Array.make ncols neg_infinity and hi = Array.make ncols infinity in
  let real_cost = Array.make ncols 0.0 in
  let rhs = Array.make m 0.0 in
  (* structural columns: gather per-column entries from rows *)
  let per_col = Array.make nv [] in
  Problem.iter_rows problem (fun i coeffs _sense r ->
      rhs.(i) <- r;
      List.iter (fun (j, v) -> per_col.(j) <- (i, v) :: per_col.(j)) coeffs);
  for j = 0 to nv - 1 do
    let entries = List.rev per_col.(j) in
    col_rows.(j) <- Array.of_list (List.map fst entries);
    col_vals.(j) <- Array.of_list (List.map snd entries);
    lo.(j) <- Problem.var_lo problem j;
    hi.(j) <- Problem.var_hi problem j;
    real_cost.(j) <- Problem.var_obj problem j
  done;
  (* slack columns *)
  Problem.iter_rows problem (fun i _ sense _ ->
      let j = nv + i in
      col_rows.(j) <- [| i |];
      col_vals.(j) <- [| 1.0 |];
      (match sense with
      | Problem.Le ->
          lo.(j) <- 0.0;
          hi.(j) <- infinity
      | Problem.Ge ->
          lo.(j) <- neg_infinity;
          hi.(j) <- 0.0
      | Problem.Eq ->
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
    match Rc_sparse.Sparse_lu.factor ~m ~cols:cols0 with
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
    Rc_obs.Metrics.incr m_solves;
    Rc_obs.Metrics.add m_pivots !iterations;
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
