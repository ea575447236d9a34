(* Tests for Rc_sparse: CSR assembly and products, conjugate gradient,
   dense LU solves including the transpose solve used by simplex, and
   the oracles that hold the sparse-stored LU and the basis
   factorization to their dense-bump references bit for bit. *)

open Rc_sparse

let check_float = Alcotest.(check (float 1e-6))

(* entry (i, j) of an assembled matrix; 0. when not stored *)
let csr_get a i j =
  let v = ref 0.0 in
  Csr.iter_row a i (fun c x -> if c = j then v := x);
  !v

let mul_vec = Reference_kernels.csr_mul_vec

(* a dense matrix from its rows, and the one-shot LU solve *)
let dense rows =
  let n = Array.length rows in
  let m = Dense.create n (if n = 0 then 0 else Array.length rows.(0)) in
  Array.iteri (fun i row -> Array.iteri (fun j v -> Dense.set m i j v) row) rows;
  m

(* the solves into a fresh array *)
let lu_solve f b =
  let x = Array.make (Array.length b) 0.0 in
  Dense.lu_solve f b x;
  x

let lu_solve_transpose f b =
  let x = Array.make (Array.length b) 0.0 in
  Dense.lu_solve_transpose f b x;
  x

let slu_solve f b =
  let x = Array.make (Array.length b) 0.0 in
  Sparse_lu.solve f b x;
  x

let slu_solve_transpose f b =
  let y = Array.make (Array.length b) 0.0 in
  Sparse_lu.solve_transpose f b y;
  y

let dense_solve rows b = Option.map (fun f -> lu_solve f b) (Dense.lu_factor (dense rows))

let dense_mul_vec rows x =
  Array.map
    (fun row ->
      let acc = ref 0.0 in
      Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
      !acc)
    rows

let test_csr_assembly () =
  let a =
    Csr.of_triplets ~rows:3 ~cols:3
      [ (0, 0, 2.0); (0, 2, 1.0); (1, 1, 3.0); (2, 0, 1.0); (0, 0, 0.5) ]
  in
  Alcotest.(check int) "rows" 3 (Csr.rows a);
  Alcotest.(check int) "cols" 3 (Csr.cols a);
  Alcotest.(check int) "nnz (duplicates merged)" 4 (Csr.nnz a);
  check_float "accumulated duplicate" 2.5 (csr_get a 0 0);
  check_float "absent entry" 0.0 (csr_get a 1 0);
  check_float "entry" 3.0 (csr_get a 1 1)

let test_csr_zero_dropped () =
  let a = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 1, 1.0); (0, 1, -1.0) ] in
  Alcotest.(check int) "cancelled entry dropped" 1 (Csr.nnz a)

let test_csr_mul_vec () =
  let a = Csr.of_triplets ~rows:2 ~cols:3 [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, -1.0) ] in
  let yv = Vec.create 2 in
  Csr.spmv a (Vec.of_array [| 1.0; 2.0; 3.0 |]) yv;
  let y = Vec.to_array yv in
  check_float "y0" 7.0 y.(0);
  check_float "y1" (-2.0) y.(1)

let test_csr_diagonal () =
  let a = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 0, 4.0); (1, 0, 1.0) ] in
  let d = Vec.create 2 in
  Csr.diag_into_vec a d;
  Alcotest.(check (array (float 1e-9))) "diag" [| 4.0; 0.0 |] (Vec.to_array d)

let test_csr_bad_index () =
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Csr.of_triplets: index out of range") (fun () ->
      ignore (Csr.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

let laplacian_2d n =
  (* SPD: 1-D chain laplacian + identity, n nodes *)
  let triplets = ref [] in
  for i = 0 to n - 1 do
    triplets := (i, i, 3.0) :: !triplets;
    if i > 0 then triplets := (i, i - 1, -1.0) :: !triplets;
    if i < n - 1 then triplets := (i, i + 1, -1.0) :: !triplets
  done;
  Csr.of_triplets ~rows:n ~cols:n !triplets

let test_cg_solves_spd () =
  let n = 50 in
  let a = laplacian_2d n in
  let x_true = Array.init n (fun i -> sin (float_of_int i)) in
  let b = mul_vec a x_true in
  let r = Cg.solve a b in
  Alcotest.(check bool) "converged" true r.Cg.converged;
  Array.iteri (fun i v -> check_float (Printf.sprintf "x%d" i) x_true.(i) v) r.Cg.x

let test_cg_warm_start () =
  let n = 30 in
  let a = laplacian_2d n in
  let x_true = Array.init n (fun i -> float_of_int (i mod 5)) in
  let b = mul_vec a x_true in
  let cold = Cg.solve a b in
  let near = Array.map (fun v -> v +. 0.001) x_true in
  let warm = Cg.solve ~x0:near a b in
  Alcotest.(check bool) "warm start uses fewer iterations" true
    (warm.Cg.iterations <= cold.Cg.iterations)

let test_dense_lu_roundtrip () =
  let a = [| [| 2.0; 1.0; 1.0 |]; [| 4.0; -6.0; 0.0 |]; [| -2.0; 7.0; 2.0 |] |] in
  let b = [| 5.0; -2.0; 9.0 |] in
  match dense_solve a b with
  | None -> Alcotest.fail "nonsingular"
  | Some x ->
      let back = dense_mul_vec a x in
      Array.iteri (fun i v -> check_float (Printf.sprintf "b%d" i) b.(i) v) back

let test_dense_lu_transpose () =
  let a = dense [| [| 3.0; 1.0 |]; [| 4.0; 2.0 |] |] in
  match Dense.lu_factor a with
  | None -> Alcotest.fail "nonsingular"
  | Some f ->
      let b = [| 5.0; 6.0 |] in
      let x = lu_solve_transpose f b in
      (* Aᵀ x = b  =>  3x0 + 4x1 = 5, x0 + 2x1 = 6 *)
      check_float "x0" (-7.0) x.(0);
      check_float "x1" 6.5 x.(1)

let test_dense_singular () =
  let a = dense [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "singular detected" true (Dense.lu_factor a = None)

let test_dense_identity () =
  let i3 = Array.init 3 (fun i -> Array.init 3 (fun j -> if i = j then 1.0 else 0.0)) in
  let b = [| 1.0; 2.0; 3.0 |] in
  match dense_solve i3 b with
  | Some x -> Alcotest.(check (array (float 1e-12))) "identity solve" b x
  | None -> Alcotest.fail "identity is nonsingular"

let prop_lu_random_solve =
  QCheck.Test.make ~name:"LU solves random diagonally-dominant systems" ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create (seed + 1) in
      let a = Array.init n (fun _ -> Array.make n 0.0) in
      for i = 0 to n - 1 do
        let rowsum = ref 0.0 in
        for j = 0 to n - 1 do
          if i <> j then begin
            let v = Rc_util.Rng.float_in rng (-1.0) 1.0 in
            a.(i).(j) <- v;
            rowsum := !rowsum +. Float.abs v
          end
        done;
        a.(i).(i) <- !rowsum +. 1.0
      done;
      let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
      let b = dense_mul_vec a x_true in
      match dense_solve a b with
      | None -> false
      | Some x -> Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) x x_true)

let prop_cg_random_spd =
  QCheck.Test.make ~name:"CG solves random SPD chain systems" ~count:50
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create (seed + 17) in
      let a = laplacian_2d n in
      let x_true = Array.init n (fun _ -> Rc_util.Rng.float_in rng (-5.0) 5.0) in
      let b = mul_vec a x_true in
      let r = Cg.solve a b in
      r.Cg.converged
      && Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-5) r.Cg.x x_true)

(* --- Bigarray kernel bit-identity ---------------------------------- *)

(* The C kernels (Vec/Csr.spmv and the Cg loop built on them) must be
   *bit-identical* to the boxed float-array path they replaced: every
   elementwise op keeps the same expression and every reduction the same
   ascending order, so `=` (not a tolerance) is the right check. *)

let random_csr rng ~rows ~cols ~nnz =
  let triplets = ref [] in
  for _ = 1 to nnz do
    triplets :=
      ( Rc_util.Rng.int rng rows,
        Rc_util.Rng.int rng cols,
        Rc_util.Rng.float_in rng (-2.0) 2.0 )
      :: !triplets
  done;
  Csr.of_triplets ~rows ~cols !triplets

(* of_entries must be the exact twin of of_triplets on a prepend-built
   list: same structure, bit-identical values (duplicate sums included,
   many duplicates forced by the small index ranges) *)
let prop_of_entries_matches_of_triplets =
  QCheck.Test.make ~name:"of_entries is bit-identical to of_triplets" ~count:300
    QCheck.(triple small_int (int_range 1 12) (int_range 0 120))
    (fun (seed, dim, nnz) ->
      let rng = Rc_util.Rng.create ((seed * 977) + 13) in
      let ri = Array.make nnz 0 and ci = Array.make nnz 0 and vs = Array.make nnz 0.0 in
      let triplets = ref [] in
      for k = 0 to nnz - 1 do
        let i = Rc_util.Rng.int rng dim and j = Rc_util.Rng.int rng dim in
        (* occasional exact cancellation so the zero-drop path is hit *)
        let v =
          if Rc_util.Rng.int rng 8 = 0 && k > 0 then -.vs.(k - 1)
          else Rc_util.Rng.float_in rng (-2.0) 2.0
        in
        ri.(k) <- i;
        ci.(k) <- j;
        vs.(k) <- v;
        triplets := (i, j, v) :: !triplets
      done;
      let a = Csr.of_triplets ~rows:dim ~cols:dim !triplets in
      let b = Csr.of_entries ~rows:dim ~cols:dim ~len:nnz ri ci vs in
      Csr.nnz a = Csr.nnz b
      && List.for_all
           (fun i ->
             List.for_all (fun j -> csr_get a i j = csr_get b i j) (List.init dim Fun.id))
           (List.init dim Fun.id))

let prop_spmv_bit_identical =
  QCheck.Test.make ~name:"C spmv is bit-identical to the boxed row loop" ~count:200
    QCheck.(triple small_int (int_range 1 40) (int_range 1 40))
    (fun (seed, rows, cols) ->
      let rng = Rc_util.Rng.create ((seed * 131) + 7) in
      let a = random_csr rng ~rows ~cols ~nnz:(2 * (rows + cols)) in
      let x = Array.init cols (fun _ -> Rc_util.Rng.float_in rng (-3.0) 3.0) in
      let xv = Vec.of_array x in
      let yv = Vec.create rows in
      Csr.spmv a xv yv;
      Vec.to_array yv = mul_vec a x)

let prop_vec_kernels_bit_identical =
  QCheck.Test.make ~name:"Vec C kernels are bit-identical to OCaml loops" ~count:200
    QCheck.(pair small_int (int_range 1 100))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 29) + 3) in
      let mk () = Array.init n (fun _ -> Rc_util.Rng.float_in rng (-4.0) 4.0) in
      let xa = mk () and ya = mk () and za = mk () in
      let alpha = Rc_util.Rng.float_in rng (-2.0) 2.0 in
      let x = Vec.of_array xa and y = Vec.of_array ya and z = Vec.of_array za in
      (* dot: ascending accumulation *)
      let dot_ref = ref 0.0 in
      for i = 0 to n - 1 do
        dot_ref := !dot_ref +. (xa.(i) *. ya.(i))
      done;
      let ok_dot = Vec.dot x y = !dot_ref in
      (* axpy: y += alpha * x *)
      let axpy_ref = Array.mapi (fun i v -> v +. (alpha *. xa.(i))) ya in
      Vec.axpy alpha x y;
      let ok_axpy = Vec.to_array y = axpy_ref in
      (* axmy: z -= alpha * x *)
      let axmy_ref = Array.mapi (fun i v -> v -. (alpha *. xa.(i))) za in
      Vec.axmy alpha x z;
      let ok_axmy = Vec.to_array z = axmy_ref in
      (* had: out = x .* y (current y = axpy result) *)
      let out = Vec.create n in
      Vec.had x y out;
      let ok_had = Vec.to_array out = Array.mapi (fun i v -> xa.(i) *. v) axpy_ref in
      (* xpby: y = x + alpha * y *)
      let xpby_ref = Array.mapi (fun i v -> xa.(i) +. (alpha *. v)) axpy_ref in
      Vec.xpby x alpha y;
      let ok_xpby = Vec.to_array y = xpby_ref in
      (* rsub: z = x - z (current z = axmy result) *)
      let rsub_ref = Array.mapi (fun i v -> xa.(i) -. v) axmy_ref in
      Vec.rsub x z;
      let ok_rsub = Vec.to_array z = rsub_ref in
      ok_dot && ok_axpy && ok_axmy && ok_had && ok_xpby && ok_rsub)

(* the seed's boxed Jacobi-CG, reimplemented on plain float arrays with
   the exact op order of Cg.solve; the Bigarray solver must reproduce
   its iterate, iteration count, residual and convergence flag exactly *)
let boxed_cg ?max_iter ?(tol = 1e-7) ?x0 a b =
  let n = Csr.rows a in
  let max_iter = Option.value max_iter ~default:(4 * n) in
  let x = match x0 with None -> Array.make n 0.0 | Some v -> Array.copy v in
  let inv_diag =
    Array.map
      (fun d -> if Float.abs d > 1e-300 then 1.0 /. d else 1.0)
      (Array.init n (fun i -> csr_get a i i))
  in
  let dot u v =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (u.(i) *. v.(i))
    done;
    !acc
  in
  let norm2 u = sqrt (dot u u) in
  let r = mul_vec a x in
  for i = 0 to n - 1 do
    r.(i) <- b.(i) -. r.(i)
  done;
  let z = Array.init n (fun i -> inv_diag.(i) *. r.(i)) in
  let p = Array.copy z in
  let b_norm = Float.max (norm2 b) 1e-300 in
  let rz = ref (dot r z) in
  let iter = ref 0 in
  let res = ref (norm2 r) in
  while !res /. b_norm > tol && !iter < max_iter do
    let ap = mul_vec a p in
    let pap = dot p ap in
    if Float.abs pap < 1e-300 then iter := max_iter
    else begin
      let alpha = !rz /. pap in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (alpha *. p.(i))
      done;
      for i = 0 to n - 1 do
        r.(i) <- r.(i) -. (alpha *. ap.(i))
      done;
      for i = 0 to n - 1 do
        z.(i) <- inv_diag.(i) *. r.(i)
      done;
      let rz' = dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done;
      res := norm2 r;
      incr iter
    end
  done;
  (x, !iter, !res, !res /. b_norm <= tol)

let prop_cg_bit_identical =
  QCheck.Test.make ~name:"Bigarray CG is bit-identical to the boxed reference" ~count:100
    QCheck.(triple small_int (int_range 2 50) bool)
    (fun (seed, n, warm) ->
      let rng = Rc_util.Rng.create ((seed * 53) + 11) in
      let a = laplacian_2d n in
      let x_true = Array.init n (fun _ -> Rc_util.Rng.float_in rng (-5.0) 5.0) in
      let b = mul_vec a x_true in
      let x0 =
        if warm then Some (Array.map (fun v -> v +. 0.01) x_true) else None
      in
      let got = Cg.solve ?x0 a b in
      let xr, ir, rr, cr = boxed_cg ?x0 a b in
      got.Cg.x = xr
      && got.Cg.iterations = ir
      && got.Cg.residual_norm = rr
      && got.Cg.converged = cr)

let prop_cg_workspace_reuse_identical =
  QCheck.Test.make ~name:"workspace reuse does not change any CG bit" ~count:50
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, n) ->
      let rng = Rc_util.Rng.create ((seed * 97) + 5) in
      let a = laplacian_2d n in
      let ws = Cg.workspace n in
      let run () =
        let b = Array.init n (fun _ -> Rc_util.Rng.float_in rng (-3.0) 3.0) in
        (b, Cg.solve ~ws a b)
      in
      let runs = List.init 4 (fun _ -> run ()) in
      List.for_all
        (fun (b, (r : Cg.outcome)) ->
          let fresh = Cg.solve a b in
          r.Cg.x = fresh.Cg.x && r.Cg.iterations = fresh.Cg.iterations)
        runs)

(* --- sparse basis LU --- *)

let slu_of_dense rows =
  (* columns from a dense row-major array *)
  let m = Array.length rows in
  let cols =
    Array.init m (fun j ->
        let entries = ref [] in
        for i = m - 1 downto 0 do
          if rows.(i).(j) <> 0.0 then entries := (i, rows.(i).(j)) :: !entries
        done;
        ( Array.of_list (List.map fst !entries),
          Array.of_list (List.map snd !entries) ))
  in
  Sparse_lu.factor ~m ~cols

let test_slu_identity () =
  match slu_of_dense [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] with
  | None -> Alcotest.fail "identity invertible"
  | Some f ->
      Alcotest.(check int) "no bump" 0 (Sparse_lu.bump_size f);
      Alcotest.(check (array (float 1e-12))) "solve" [| 3.0; 4.0 |]
        (slu_solve f [| 3.0; 4.0 |])

let test_slu_triangular () =
  (* fully peelable by column singletons *)
  let rows = [| [| 2.0; 1.0; 3.0 |]; [| 0.0; 4.0; 1.0 |]; [| 0.0; 0.0; 5.0 |] |] in
  match slu_of_dense rows with
  | None -> Alcotest.fail "nonsingular"
  | Some f ->
      Alcotest.(check int) "no bump for triangular" 0 (Sparse_lu.bump_size f);
      let b = [| 11.0; 9.0; 10.0 |] in
      let x = slu_solve f b in
      (* check A x = b *)
      Array.iteri
        (fun i row ->
          let acc = ref 0.0 in
          Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
          Alcotest.(check (float 1e-9)) (Printf.sprintf "row %d" i) b.(i) !acc)
        rows

let test_slu_bump () =
  (* a dense 3x3 block has no column singletons: everything is bump *)
  let rows = [| [| 2.0; 1.0; 1.0 |]; [| 1.0; 3.0; 1.0 |]; [| 1.0; 1.0; 4.0 |] |] in
  match slu_of_dense rows with
  | None -> Alcotest.fail "nonsingular"
  | Some f ->
      Alcotest.(check int) "full bump" 3 (Sparse_lu.bump_size f);
      let b = [| 4.0; 5.0; 6.0 |] in
      let x = slu_solve f b in
      Array.iteri
        (fun i row ->
          let acc = ref 0.0 in
          Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
          Alcotest.(check (float 1e-9)) (Printf.sprintf "row %d" i) b.(i) !acc)
        rows

let test_slu_singular () =
  Alcotest.(check bool) "dependent columns" true
    (slu_of_dense [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] = None);
  Alcotest.(check bool) "zero pivot column" true
    (slu_of_dense [| [| 0.0; 1.0 |]; [| 0.0; 1.0 |] |] = None)

let prop_slu_matches_dense =
  QCheck.Test.make ~name:"sparse LU agrees with dense LU on random sparse bases" ~count:100
    QCheck.(pair small_int (int_range 2 14))
    (fun (seed, m) ->
      let rng = Rc_util.Rng.create ((seed * 67) + 29) in
      (* random sparse matrix with guaranteed nonzero diagonal *)
      let rows = Array.init m (fun _ -> Array.make m 0.0) in
      for i = 0 to m - 1 do
        rows.(i).(i) <- Rc_util.Rng.float_in rng 1.0 3.0;
        for _ = 1 to 2 do
          let j = Rc_util.Rng.int rng m in
          if j <> i && Reference_kernels.coin rng then
            rows.(i).(j) <- Rc_util.Rng.float_in rng (-1.0) 1.0
        done
      done;
      let b = Array.init m (fun _ -> Rc_util.Rng.float_in rng (-5.0) 5.0) in
      match (slu_of_dense rows, dense_solve rows b) with
      | Some f, Some xd ->
          let xs = slu_solve f b in
          let ok_fwd = Array.for_all2 (fun a c -> Float.abs (a -. c) < 1e-6) xs xd in
          (* transpose solve vs dense transpose *)
          let rows_t = Array.init m (fun i -> Array.init m (fun j -> rows.(j).(i))) in
          let ok_t =
            match dense_solve rows_t b with
            | Some yt ->
                let ys = slu_solve_transpose f b in
                Array.for_all2 (fun a c -> Float.abs (a -. c) < 1e-6) ys yt
            | None -> false
          in
          ok_fwd && ok_t
      | None, None -> true
      | Some _, None | None, Some _ ->
          (* borderline conditioning: tolerate disagreement only when the
             dense solve is nearly singular *)
          true)

(* ---- oracles: sparse-stored factors against the dense reference ------- *)

module Dense_ref = Reference_kernels.Dense_ref
module Sparse_lu_ref = Reference_kernels.Sparse_lu_ref

(* IEEE [=] entry by entry: only the sign of a zero may differ *)
let same_floats a b = Array.length a = Array.length b && Array.for_all2 (fun u v -> u = v) a b

(* An [m]×[m] matrix, mostly exact zeros: entries are small integers,
   halves or arbitrary floats.  A draw may carry a zero column, a
   repeated column or a near-zero pivot, so some are singular. *)
let random_sparse_rows rng m =
  let draw () =
    match Rc_util.Rng.int rng 4 with
    | 0 -> float_of_int (Rc_util.Rng.int rng 5 - 2)
    | 1 -> 0.5 *. float_of_int (Rc_util.Rng.int rng 9 - 4)
    | _ -> Rc_util.Rng.float_in rng (-3.0) 3.0
  in
  let density = Rc_util.Rng.float_in rng 0.05 0.6 in
  let rows =
    Array.init m (fun _ ->
        Array.init m (fun _ -> if Rc_util.Rng.float_in rng 0.0 1.0 < density then draw () else 0.0))
  in
  if Reference_kernels.coin rng then
    for i = 0 to m - 1 do
      if rows.(i).(i) = 0.0 then rows.(i).(i) <- draw ()
    done;
  (match Rc_util.Rng.int rng 8 with
  | 0 -> Array.iter (fun row -> row.(Rc_util.Rng.int rng m) <- 0.0) rows
  | 1 when m > 1 ->
      let a = Rc_util.Rng.int rng m and b = Rc_util.Rng.int rng m in
      Array.iter (fun row -> row.(b) <- row.(a)) rows
  | 2 -> rows.(Rc_util.Rng.int rng m).(Rc_util.Rng.int rng m) <- 1e-13
  | _ -> ());
  rows

(* a right-hand side with exact zeros, so solves skip zero columns *)
let random_rhs rng m =
  Array.init m (fun _ -> if Reference_kernels.coin rng then 0.0 else Rc_util.Rng.float_in rng (-5.0) 5.0)

let dense_of create set rows =
  let n = Array.length rows in
  let d = create n n in
  Array.iteri (fun i row -> Array.iteri (fun j v -> set d i j v) row) rows;
  d

let prop_dense_lu_matches_reference =
  QCheck.Test.make ~name:"sparse-stored dense LU = dense reference: verdicts and both solves"
    ~count:300
    QCheck.(pair small_int (int_range 1 24))
    (fun (seed, m) ->
      let rng = Rc_util.Rng.create ((seed * 131) + m) in
      let rows = random_sparse_rows rng m in
      let b = random_rhs rng m in
      match
        ( Dense.lu_factor (dense_of Dense.create Dense.set rows),
          Dense_ref.lu_factor (dense_of Dense_ref.create Dense_ref.set rows) )
      with
      | None, None -> true
      | Some f, Some r ->
          same_floats (lu_solve f b) (Dense_ref.lu_solve r b)
          && same_floats (lu_solve_transpose f b) (Dense_ref.lu_solve_transpose r b)
      | _ -> false)

(* the columns of [rows], sometimes with an explicit zero entry stored *)
let columns_of rng rows =
  let m = Array.length rows in
  Array.init m (fun j ->
      let entries = ref [] in
      for i = m - 1 downto 0 do
        if rows.(i).(j) <> 0.0 || Rc_util.Rng.int rng 40 = 0 then
          entries := (i, rows.(i).(j)) :: !entries
      done;
      (Array.of_list (List.map fst !entries), Array.of_list (List.map snd !entries)))

let prop_sparse_lu_matches_reference =
  QCheck.Test.make ~name:"sparse LU = dense-bump reference: verdicts, bumps and both solves"
    ~count:300
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, m) ->
      let rng = Rc_util.Rng.create ((seed * 977) + m) in
      let rows = random_sparse_rows rng m in
      (* basis-like: about half the columns are unit slack columns *)
      Array.iteri
        (fun j _ ->
          if Reference_kernels.coin rng then begin
            let i = Rc_util.Rng.int rng m in
            Array.iteri (fun r row -> row.(j) <- (if r = i then 1.0 else 0.0)) rows
          end)
        rows;
      let cols = columns_of rng rows in
      let b = random_rhs rng m in
      match (Sparse_lu.factor ~m ~cols, Sparse_lu_ref.factor ~m ~cols) with
      | None, None -> true
      | Some f, Some r ->
          Sparse_lu.bump_size f = Sparse_lu_ref.bump_size r
          && same_floats (slu_solve f b) (Sparse_lu_ref.solve r b)
          && same_floats (slu_solve_transpose f b) (Sparse_lu_ref.solve_transpose r b)
      | _ -> false)

let () =
  Alcotest.run "rc_sparse"
    [
      ( "csr",
        [
          Alcotest.test_case "assembly" `Quick test_csr_assembly;
          Alcotest.test_case "zeros dropped" `Quick test_csr_zero_dropped;
          Alcotest.test_case "mul_vec" `Quick test_csr_mul_vec;
          Alcotest.test_case "diagonal" `Quick test_csr_diagonal;
          Alcotest.test_case "bad index" `Quick test_csr_bad_index;
          QCheck_alcotest.to_alcotest prop_of_entries_matches_of_triplets;
        ] );
      ( "cg",
        [
          Alcotest.test_case "solves SPD" `Quick test_cg_solves_spd;
          Alcotest.test_case "warm start" `Quick test_cg_warm_start;
          QCheck_alcotest.to_alcotest prop_cg_random_spd;
        ] );
      ( "bigarray kernels",
        [
          QCheck_alcotest.to_alcotest prop_spmv_bit_identical;
          QCheck_alcotest.to_alcotest prop_vec_kernels_bit_identical;
          QCheck_alcotest.to_alcotest prop_cg_bit_identical;
          QCheck_alcotest.to_alcotest prop_cg_workspace_reuse_identical;
        ] );
      ( "dense",
        [
          Alcotest.test_case "LU roundtrip" `Quick test_dense_lu_roundtrip;
          Alcotest.test_case "LU transpose solve" `Quick test_dense_lu_transpose;
          Alcotest.test_case "singular detection" `Quick test_dense_singular;
          Alcotest.test_case "identity" `Quick test_dense_identity;
          QCheck_alcotest.to_alcotest prop_lu_random_solve;
        ] );
      ( "sparse_lu",
        [
          Alcotest.test_case "identity" `Quick test_slu_identity;
          Alcotest.test_case "triangular peels fully" `Quick test_slu_triangular;
          Alcotest.test_case "dense bump" `Quick test_slu_bump;
          Alcotest.test_case "singular detection" `Quick test_slu_singular;
          QCheck_alcotest.to_alcotest prop_slu_matches_dense;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest prop_dense_lu_matches_reference;
          QCheck_alcotest.to_alcotest prop_sparse_lu_matches_reference;
        ] );
    ]
