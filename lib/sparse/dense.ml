type mat = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Dense.create";
  { r; c; a = Array.make (max 1 (r * c)) 0.0 }

let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v
let copy m = { m with a = Array.copy m.a }

type lu = { lu_mat : mat; perm : int array }

let lu_factor m0 =
  if m0.r <> m0.c then invalid_arg "Dense.lu_factor: not square";
  let n = m0.r in
  let m = copy m0 in
  let perm = Array.init n Fun.id in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       (* partial pivot *)
       let piv = ref k and best = ref (Float.abs (get m k k)) in
       for i = k + 1 to n - 1 do
         let v = Float.abs (get m i k) in
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
         for j = 0 to n - 1 do
           let t = get m k j in
           set m k j (get m !piv j);
           set m !piv j t
         done;
         let t = perm.(k) in
         perm.(k) <- perm.(!piv);
         perm.(!piv) <- t
       end;
       let pivot = get m k k in
       for i = k + 1 to n - 1 do
         let f = get m i k /. pivot in
         set m i k f;
         if f <> 0.0 then
           for j = k + 1 to n - 1 do
             set m i j (get m i j -. (f *. get m k j))
           done
       done
     done
   with Exit -> ());
  if !singular then None else Some { lu_mat = m; perm }

let lu_solve { lu_mat = m; perm } b =
  let n = m.r in
  if Array.length b <> n then invalid_arg "Dense.lu_solve: size mismatch";
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* forward: L y = Pb, unit diagonal *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get m i j *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* backward: U x = y *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get m i j *. x.(j))
    done;
    x.(i) <- !acc /. get m i i
  done;
  x

let lu_solve_transpose { lu_mat = m; perm } b =
  (* Aᵀ x = b  with P A = L U  =>  Aᵀ = Uᵀ Lᵀ P, solve Uᵀ y = b,
     Lᵀ z = y, then x = Pᵀ z. *)
  let n = m.r in
  if Array.length b <> n then invalid_arg "Dense.lu_solve_transpose: size mismatch";
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get m j i *. y.(j))
    done;
    y.(i) <- !acc /. get m i i
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get m j i *. y.(j))
    done;
    y.(i) <- !acc
  done;
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    x.(perm.(i)) <- y.(i)
  done;
  x
