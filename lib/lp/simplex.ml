type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  x : float array;
  objective : float;
  duals : float array;
  iterations : int;
}

(* Internal column-wise representation, in flat CSC arrays: column j's
   entries are col_start.(j) .. col_start.(j+1)-1, rows ascending.
   Columns 0..nv-1 are structural, nv..nv+m-1 slacks, nv+m..nv+2m-1
   artificials. *)

(* One product-form update: the entering column's FTRAN result w at
   the leaving row [pos], kept as its pivot w.(pos) and its other
   nonzeros in ascending row order. *)
type eta = { pos : int; piv : float; idx : int array; vals : float array }

type state = {
  m : int;
  ncols : int;
  col_start : int array;
  col_row : int array;
  col_val : float array;
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
  etas : eta array;  (* oldest first; the first n_etas are live *)
  mutable n_etas : int;
  resid : float array;  (* recompute_x_b's right-hand side *)
}

let refactor_interval = 20

let no_eta = { pos = 0; piv = 1.0; idx = [||]; vals = [||] }

let eta_of pos w =
  let n = ref 0 in
  Array.iteri (fun i v -> if i <> pos && v <> 0.0 then incr n) w;
  let idx = Array.make !n 0 and vals = Array.make !n 0.0 in
  let q = ref 0 in
  Array.iteri
    (fun i v ->
      if i <> pos && v <> 0.0 then begin
        idx.(!q) <- i;
        vals.(!q) <- v;
        incr q
      end)
    w;
  { pos; piv = w.(pos); idx; vals }

(* FTRAN: u := B⁻¹ v, the etas applied oldest first. A skipped zero of
   an eta subtracts an exact zero, as in the dense update. *)
let ftran st v u =
  Rc_sparse.Sparse_lu.solve st.lu v u;
  for e = 0 to st.n_etas - 1 do
    let { pos; piv; idx; vals } = st.etas.(e) in
    let ur = u.(pos) /. piv in
    for p = 0 to Array.length idx - 1 do
      let i = idx.(p) in
      u.(i) <- u.(i) -. (vals.(p) *. ur)
    done;
    u.(pos) <- ur
  done

(* BTRAN: y := B⁻ᵀ c, the etas applied newest first to [c] in place. *)
let btran st c y =
  for e = st.n_etas - 1 downto 0 do
    let { pos; piv; idx; vals } = st.etas.(e) in
    let acc = ref c.(pos) in
    for p = 0 to Array.length idx - 1 do
      acc := !acc -. (vals.(p) *. c.(idx.(p)))
    done;
    c.(pos) <- !acc /. piv
  done;
  Rc_sparse.Sparse_lu.solve_transpose st.lu c y

let factor_basis ~m ~col_start ~col_row ~col_val basic_of_row =
  Rc_sparse.Sparse_lu.factor ~m
    ~cols:
      (Array.init m (fun k ->
           let j = basic_of_row.(k) in
           let s = col_start.(j) and len = col_start.(j + 1) - col_start.(j) in
           (Array.sub col_row s len, Array.sub col_val s len)))

let recompute_x_b st =
  (* x_B = B⁻¹ (rhs - Σ nonbasic A_j v_j) *)
  let r = st.resid in
  Array.blit st.rhs 0 r 0 st.m;
  for j = 0 to st.ncols - 1 do
    if st.pos_in_basis.(j) < 0 && st.nb_val.(j) <> 0.0 then
      for p = st.col_start.(j) to st.col_start.(j + 1) - 1 do
        let i = st.col_row.(p) in
        r.(i) <- r.(i) -. (st.col_val.(p) *. st.nb_val.(j))
      done
  done;
  ftran st r st.x_b

let m_solves = Rc_obs.Metrics.counter "lp.simplex.solves"
let m_pivots = Rc_obs.Metrics.counter "lp.simplex.pivots"
let m_refactorizations = Rc_obs.Metrics.counter "lp.simplex.refactorizations"

let refactorize st =
  Rc_obs.Metrics.incr m_refactorizations;
  match
    factor_basis ~m:st.m ~col_start:st.col_start ~col_row:st.col_row ~col_val:st.col_val
      st.basic_of_row
  with
  | Some lu ->
      st.lu <- lu;
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
  let lo = Array.make ncols neg_infinity and hi = Array.make ncols infinity in
  let real_cost = Array.make ncols 0.0 in
  let rhs = Array.make m 0.0 in
  (* structural columns: gather per-column entries from rows *)
  let per_col = Array.make nv [] in
  Problem.iter_rows problem (fun i coeffs _sense r ->
      rhs.(i) <- r;
      List.iter (fun (j, v) -> per_col.(j) <- (i, v) :: per_col.(j)) coeffs);
  let col_start = Array.make (ncols + 1) 0 in
  for j = 0 to ncols - 1 do
    let len = if j < nv then List.length per_col.(j) else 1 in
    col_start.(j + 1) <- col_start.(j) + len
  done;
  let col_row = Array.make col_start.(ncols) 0 and col_val = Array.make col_start.(ncols) 0.0 in
  for j = 0 to nv - 1 do
    List.iteri
      (fun k (i, v) ->
        col_row.(col_start.(j) + k) <- i;
        col_val.(col_start.(j) + k) <- v)
      (List.rev per_col.(j));
    lo.(j) <- Problem.var_lo problem j;
    hi.(j) <- Problem.var_hi problem j;
    real_cost.(j) <- Problem.var_obj problem j
  done;
  (* slack columns *)
  Problem.iter_rows problem (fun i _ sense _ ->
      let j = nv + i in
      col_row.(col_start.(j)) <- i;
      col_val.(col_start.(j)) <- 1.0;
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
    if nb_val.(j) <> 0.0 then
      for p = col_start.(j) to col_start.(j + 1) - 1 do
        resid.(col_row.(p)) <- resid.(col_row.(p)) -. (col_val.(p) *. nb_val.(j))
      done
  done;
  let cost = Array.make ncols 0.0 in
  for i = 0 to m - 1 do
    let j = nv + m + i in
    col_row.(col_start.(j)) <- i;
    col_val.(col_start.(j)) <- (if resid.(i) >= 0.0 then 1.0 else -1.0);
    lo.(j) <- 0.0;
    hi.(j) <- infinity;
    cost.(j) <- 1.0
  done;
  let basic_of_row = Array.init m (fun i -> nv + m + i) in
  let pos_in_basis = Array.make ncols (-1) in
  Array.iteri (fun k j -> pos_in_basis.(j) <- k) basic_of_row;
  let x_b = Array.init m (fun i -> Float.abs resid.(i)) in
  let lu =
    match factor_basis ~m ~col_start ~col_row ~col_val basic_of_row with
    | Some lu -> lu
    | None -> failwith "Simplex: initial basis singular"
  in
  let st =
    { m; ncols; col_start; col_row; col_val; lo; hi; cost; real_cost; rhs; basic_of_row;
      pos_in_basis; nb_val; x_b; lu; etas = Array.make refactor_interval no_eta; n_etas = 0;
      resid = Array.make m 0.0 }
  in
  (* per-pivot work vectors: basic costs, duals, the entering column and
     its FTRAN *)
  let cb = Array.make m 0.0 and y = Array.make m 0.0 in
  let a_e = Array.make m 0.0 and w = Array.make m 0.0 in
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
        for k = 0 to m - 1 do
          cb.(k) <- cost.(basic_of_row.(k))
        done;
        btran st cb y;
        let use_bland = !stall > 80 in
        let enter = ref (-1) and enter_dir = ref 1.0 and best_score = ref eps in
        (* full Dantzig pricing: the worse entering choices of partial
           pricing cost more in extra degenerate pivots than the scan
           saves on these assignment-structured LPs *)
        let j = ref 0 in
        while !j < ncols do
          let jj = !j in
          if pos_in_basis.(jj) < 0 && lo.(jj) < hi.(jj) then begin
            let dot = ref 0.0 in
            for p = col_start.(jj) to col_start.(jj + 1) - 1 do
              dot := !dot +. (col_val.(p) *. y.(col_row.(p)))
            done;
            let d = cost.(jj) -. !dot in
            let at_lo = Float.is_finite lo.(jj) && nb_val.(jj) <= lo.(jj) +. 1e-9 in
            let at_hi = Float.is_finite hi.(jj) && nb_val.(jj) >= hi.(jj) -. 1e-9 in
            (* the eligible direction, 0 when none *)
            let dir =
              if (not at_lo) && not at_hi then
                (* free variable *)
                if d < -.eps then 1.0 else if d > eps then -1.0 else 0.0
              else if at_lo && d < -.eps then 1.0
              else if at_hi && d > eps then -1.0
              else 0.0
            in
            if dir <> 0.0 then
              if use_bland then begin
                enter := jj;
                enter_dir := dir;
                j := ncols
              end
              else if Float.abs d > !best_score then begin
                best_score := Float.abs d;
                enter := jj;
                enter_dir := dir
              end
          end;
          incr j
        done;
        if !enter < 0 then raise (Done Optimal);
        let e = !enter and dir = !enter_dir in
        for p = col_start.(e) to col_start.(e + 1) - 1 do
          a_e.(col_row.(p)) <- col_val.(p)
        done;
        ftran st a_e w;
        for p = col_start.(e) to col_start.(e + 1) - 1 do
          a_e.(col_row.(p)) <- 0.0
        done;
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
          st.etas.(st.n_etas) <- eta_of k w;
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
    for k = 0 to m - 1 do
      cb.(k) <- real_cost.(basic_of_row.(k))
    done;
    let duals = Array.make m 0.0 in
    btran st cb duals;
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
