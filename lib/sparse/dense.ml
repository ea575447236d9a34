type mat = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Dense.create";
  { r; c; a = Array.make (max 1 (r * c)) 0.0 }

let set m i j v = m.a.((i * m.c) + j) <- v

(* P A = L U, stored sparse: L's strictly-lower entries by columns
   (rows ascending), U's strictly-upper entries by rows (columns
   ascending), U's diagonal apart. Only nonzeros are kept. *)
type lu = {
  n : int;
  perm : int array;
  l_start : int array;  (* column j of L: l_start.(j) .. l_start.(j+1)-1 *)
  l_row : int array;
  l_val : float array;
  u_start : int array;  (* row i of U: u_start.(i) .. u_start.(i+1)-1 *)
  u_col : int array;
  u_val : float array;
  u_diag : float array;
  work : float array;  (* the transpose solve's permuted vector *)
}

(* Partial pivoting as a dense LU: the same column scan, row swaps and
   singularity test. Each entry takes its updates in ascending pivot
   order, but only where the multiplier and the pivot-row entry are
   both nonzero; a skipped update subtracts an exact zero, which can
   change only the sign of a zero entry. *)
let lu_factor m =
  if m.r <> m.c then invalid_arg "Dense.lu_factor: not square";
  let n = m.r and a = m.a in
  let perm = Array.init n Fun.id in
  let nz = Array.make (max 1 n) 0 in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       let rk = k * n in
       let piv = ref k and best = ref (Float.abs a.(rk + k)) in
       for i = k + 1 to n - 1 do
         let v = Float.abs a.((i * n) + k) in
         if v > !best then begin
           best := v;
           piv := i
         end
       done;
       if !best < 1e-12 then begin
         singular := true;
         raise Exit
       end;
       if !piv <> k then begin
         let rp = !piv * n in
         for j = 0 to n - 1 do
           let t = a.(rk + j) in
           a.(rk + j) <- a.(rp + j);
           a.(rp + j) <- t
         done;
         let t = perm.(k) in
         perm.(k) <- perm.(!piv);
         perm.(!piv) <- t
       end;
       let pivot = a.(rk + k) in
       let nnz = ref 0 in
       for j = k + 1 to n - 1 do
         if a.(rk + j) <> 0.0 then begin
           nz.(!nnz) <- j;
           incr nnz
         end
       done;
       let nnz = !nnz in
       for i = k + 1 to n - 1 do
         let ri = i * n in
         let f = a.(ri + k) /. pivot in
         a.(ri + k) <- f;
         if f <> 0.0 then
           for t = 0 to nnz - 1 do
             let j = nz.(t) in
             a.(ri + j) <- a.(ri + j) -. (f *. a.(rk + j))
           done
       done
     done
   with Exit -> ());
  if !singular then None
  else begin
    let l_start = Array.make (n + 1) 0 and u_start = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if a.((i * n) + j) <> 0.0 then
          if j < i then l_start.(j + 1) <- l_start.(j + 1) + 1
          else if j > i then u_start.(i + 1) <- u_start.(i + 1) + 1
      done
    done;
    for k = 1 to n do
      l_start.(k) <- l_start.(k) + l_start.(k - 1);
      u_start.(k) <- u_start.(k) + u_start.(k - 1)
    done;
    let l_row = Array.make l_start.(n) 0 and l_val = Array.make l_start.(n) 0.0 in
    let u_col = Array.make u_start.(n) 0 and u_val = Array.make u_start.(n) 0.0 in
    let u_diag = Array.make n 0.0 in
    let l_fill = Array.sub l_start 0 (max 1 n) in
    for i = 0 to n - 1 do
      let ri = i * n in
      let up = ref u_start.(i) in
      for j = 0 to n - 1 do
        let v = a.(ri + j) in
        if j = i then u_diag.(i) <- v
        else if v <> 0.0 then
          if j < i then begin
            let p = l_fill.(j) in
            l_row.(p) <- i;
            l_val.(p) <- v;
            l_fill.(j) <- p + 1
          end
          else begin
            u_col.(!up) <- j;
            u_val.(!up) <- v;
            incr up
          end
      done
    done;
    Some
      { n; perm; l_start; l_row; l_val; u_start; u_col; u_val; u_diag; work = Array.make n 0.0 }
  end

(* Each x_i takes its terms in the order of the dense triangular loops
   (ascending j), so the stored-entry walks reproduce them bit for bit
   up to the sign of a zero. *)
let lu_solve f b x =
  let n = f.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Dense.lu_solve: size mismatch";
  if n > 0 && b == x then invalid_arg "Dense.lu_solve: b and x alias";
  for i = 0 to n - 1 do
    x.(i) <- b.(f.perm.(i))
  done;
  (* L y = Pb by columns, unit diagonal *)
  for j = 0 to n - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for p = f.l_start.(j) to f.l_start.(j + 1) - 1 do
        let i = f.l_row.(p) in
        x.(i) <- x.(i) -. (f.l_val.(p) *. xj)
      done
  done;
  (* U x = y by rows *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for p = f.u_start.(i) to f.u_start.(i + 1) - 1 do
      acc := !acc -. (f.u_val.(p) *. x.(f.u_col.(p)))
    done;
    x.(i) <- !acc /. f.u_diag.(i)
  done

(* Aᵀ x = b with P A = L U: Aᵀ = Uᵀ Lᵀ P, so solve Uᵀ y = b by rows of
   U, Lᵀ z = y by columns of L, then x = Pᵀ z. *)
let lu_solve_transpose f b x =
  let n = f.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Dense.lu_solve_transpose: size mismatch";
  let y = f.work in
  Array.blit b 0 y 0 n;
  for j = 0 to n - 1 do
    let yj = y.(j) /. f.u_diag.(j) in
    y.(j) <- yj;
    if yj <> 0.0 then
      for p = f.u_start.(j) to f.u_start.(j + 1) - 1 do
        let i = f.u_col.(p) in
        y.(i) <- y.(i) -. (f.u_val.(p) *. yj)
      done
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for p = f.l_start.(i) to f.l_start.(i + 1) - 1 do
      acc := !acc -. (f.l_val.(p) *. y.(f.l_row.(p)))
    done;
    y.(i) <- !acc
  done;
  for i = 0 to n - 1 do
    x.(f.perm.(i)) <- y.(i)
  done
