type outcome = {
  x : float array;
  iterations : int;
  residual_norm : float;
  converged : bool;
}

let m_solves = Rc_obs.Metrics.counter "sparse.cg.solves"
let m_iterations = Rc_obs.Metrics.counter "sparse.cg.iterations"
let m_unconverged = Rc_obs.Metrics.counter "sparse.cg.unconverged"

(* Scratch buffers of one solve, reusable across solves of the same
   dimension.  Quadratic placement solves dozens of same-size systems
   (two per spreading round); reusing the buffers removes seven n-vector
   allocations per solve.  All vectors are flat float64 Bigarrays so the
   Vec/Csr C kernels stream them unboxed; [xv]/[bv] hold the iterate and
   rhs for the kernels' benefit, and only the returned solution is
   allocated fresh (as a plain float array, for the callers). *)
type workspace = {
  inv_diag : Vec.t;
  r : Vec.t;  (* residual *)
  z : Vec.t;  (* preconditioned residual *)
  p : Vec.t;  (* search direction *)
  ap : Vec.t;  (* A p *)
  xv : Vec.t;  (* iterate *)
  bv : Vec.t;  (* rhs *)
}

let workspace n =
  if n < 0 then invalid_arg "Cg.workspace: negative size";
  {
    inv_diag = Vec.create n;
    r = Vec.create n;
    z = Vec.create n;
    p = Vec.create n;
    ap = Vec.create n;
    xv = Vec.create n;
    bv = Vec.create n;
  }

let solve ?ws ?(tol = 1e-8) ?x0 a b =
  let n = Csr.rows a in
  if Csr.cols a <> n then invalid_arg "Cg.solve: matrix not square";
  if Array.length b <> n then invalid_arg "Cg.solve: rhs size mismatch";
  let max_iter = 4 * n in
  let ws =
    match ws with
    | Some w ->
        if Vec.length w.r <> n then invalid_arg "Cg.solve: workspace size mismatch";
        w
    | None -> workspace n
  in
  let inv_diag = ws.inv_diag and r = ws.r and z = ws.z and p = ws.p and ap = ws.ap in
  let x = ws.xv and bv = ws.bv in
  (match x0 with
  | None -> Vec.fill x 0.0
  | Some v ->
      if Array.length v <> n then invalid_arg "Cg.solve: x0 size mismatch";
      for i = 0 to n - 1 do
        x.{i} <- v.(i)
      done);
  for i = 0 to n - 1 do
    bv.{i} <- b.(i)
  done;
  Csr.diag_into_vec a inv_diag;
  for i = 0 to n - 1 do
    inv_diag.{i} <- (if Float.abs inv_diag.{i} > 1e-300 then 1.0 /. inv_diag.{i} else 1.0)
  done;
  Csr.spmv a x r;
  Vec.rsub bv r;
  Vec.had inv_diag r z;
  Vec.blit z p;
  let b_norm = Float.max (Vec.norm2 bv) 1e-300 in
  let rz = ref (Vec.dot r z) in
  let iter = ref 0 in
  let res = ref (Vec.norm2 r) in
  while !res /. b_norm > tol && !iter < max_iter do
    Csr.spmv a p ap;
    let pap = Vec.dot p ap in
    if Float.abs pap < 1e-300 then iter := max_iter
    else begin
      let alpha = !rz /. pap in
      Vec.axpy alpha p x;
      Vec.axmy alpha ap r;
      Vec.had inv_diag r z;
      let rz' = Vec.dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      Vec.xpby z beta p;
      res := Vec.norm2 r;
      incr iter
    end
  done;
  let converged = !res /. b_norm <= tol in
  Rc_obs.Metrics.incr m_solves;
  Rc_obs.Metrics.add m_iterations !iter;
  if not converged then Rc_obs.Metrics.incr m_unconverged;
  { x = Vec.to_array x; iterations = !iter; residual_norm = !res; converged }
