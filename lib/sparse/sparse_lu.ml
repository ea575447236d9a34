(* The basis in flat arrays: its columns as given (CSC) and its rows
   (CSR, each row's entries in descending column order, the order the
   peel walks them in). *)
type t = {
  m : int;
  col_start : int array;
  col_row : int array;
  col_val : float array;
  row_start : int array;
  row_col : int array;
  row_val : float array;
  piv_row : int array;  (* peeled pivots (row, col, value) in peel order *)
  piv_col : int array;
  piv_val : float array;
  bump_rows : int array;
  bump_cols : int array;
  in_bump_row : bool array;
  bump_lu : Dense.lu option;  (* None iff the bump is empty *)
  rhs2 : float array;  (* the bump's gathered right-hand side *)
  sol2 : float array;  (* and its solution *)
}

let factor ~m ~cols =
  if Array.length cols <> m then invalid_arg "Sparse_lu.factor: need m columns";
  Array.iter
    (fun (rows, vals) ->
      if Array.length rows <> Array.length vals then
        invalid_arg "Sparse_lu.factor: ragged column";
      Array.iter
        (fun r -> if r < 0 || r >= m then invalid_arg "Sparse_lu.factor: row out of range")
        rows)
    cols;
  let col_start = Array.make (m + 1) 0 in
  Array.iteri (fun j (rows, _) -> col_start.(j + 1) <- col_start.(j) + Array.length rows) cols;
  let nnz = col_start.(m) in
  let col_row = Array.make nnz 0 and col_val = Array.make nnz 0.0 in
  Array.iteri
    (fun j (rows, vals) ->
      Array.blit rows 0 col_row col_start.(j) (Array.length rows);
      Array.blit vals 0 col_val col_start.(j) (Array.length vals))
    cols;
  let row_start = Array.make (m + 1) 0 in
  for p = 0 to nnz - 1 do
    row_start.(col_row.(p) + 1) <- row_start.(col_row.(p) + 1) + 1
  done;
  for r = 1 to m do
    row_start.(r) <- row_start.(r) + row_start.(r - 1)
  done;
  let row_col = Array.make nnz 0 and row_val = Array.make nnz 0.0 in
  let fill = Array.sub row_start 0 (max 1 m) in
  for j = m - 1 downto 0 do
    for p = col_start.(j) to col_start.(j + 1) - 1 do
      let r = col_row.(p) in
      row_col.(fill.(r)) <- j;
      row_val.(fill.(r)) <- col_val.(p);
      fill.(r) <- fill.(r) + 1
    done
  done;
  (* iterated column-singleton peeling *)
  let row_active = Array.make m true and col_active = Array.make m true in
  let col_cnt = Array.init m (fun j -> col_start.(j + 1) - col_start.(j)) in
  let queue = Queue.create () in
  Array.iteri (fun j c -> if c = 1 then Queue.add j queue) col_cnt;
  let piv_row = Array.make m 0 and piv_col = Array.make m 0 and piv_val = Array.make m 0.0 in
  let n_peeled = ref 0 in
  let singular = ref false in
  while not (Queue.is_empty queue) do
    let j = Queue.pop queue in
    if col_active.(j) && col_cnt.(j) = 1 then begin
      (* the single active row of column j *)
      let r = ref (-1) and v = ref 0.0 in
      for p = col_start.(j) to col_start.(j + 1) - 1 do
        if row_active.(col_row.(p)) then begin
          r := col_row.(p);
          v := col_val.(p)
        end
      done;
      if !r < 0 then ()
      else if Float.abs !v < 1e-11 then singular := true
      else begin
        let r = !r in
        piv_row.(!n_peeled) <- r;
        piv_col.(!n_peeled) <- j;
        piv_val.(!n_peeled) <- !v;
        incr n_peeled;
        col_active.(j) <- false;
        row_active.(r) <- false;
        (* deactivating row r may create new column singletons *)
        for p = row_start.(r) to row_start.(r + 1) - 1 do
          let jc = row_col.(p) in
          if col_active.(jc) then begin
            col_cnt.(jc) <- col_cnt.(jc) - 1;
            if col_cnt.(jc) = 1 then Queue.add jc queue
          end
        done
      end
    end
  done;
  let n_peeled = !n_peeled in
  let bump_rows = List.filter (fun r -> row_active.(r)) (List.init m Fun.id) |> Array.of_list in
  let bump_cols = List.filter (fun j -> col_active.(j)) (List.init m Fun.id) |> Array.of_list in
  let nb = Array.length bump_rows in
  if !singular || nb <> Array.length bump_cols then None
  else begin
    let bump_pos_of_row = Array.make m (-1) in
    Array.iteri (fun i r -> bump_pos_of_row.(r) <- i) bump_rows;
    let bump_lu =
      if nb = 0 then Some None
      else begin
        let s = Dense.create nb nb in
        Array.iteri
          (fun bj j ->
            for p = col_start.(j) to col_start.(j + 1) - 1 do
              let br = bump_pos_of_row.(col_row.(p)) in
              if br >= 0 then Dense.set s br bj col_val.(p)
            done)
          bump_cols;
        Option.map Option.some (Dense.lu_factor s)
      end
    in
    Option.map
      (fun bump_lu ->
        {
          m;
          col_start;
          col_row;
          col_val;
          row_start;
          row_col;
          row_val;
          piv_row = Array.sub piv_row 0 n_peeled;
          piv_col = Array.sub piv_col 0 n_peeled;
          piv_val = Array.sub piv_val 0 n_peeled;
          bump_rows;
          bump_cols;
          in_bump_row = Array.map (fun p -> p >= 0) bump_pos_of_row;
          bump_lu;
          rhs2 = Array.make nb 0.0;
          sol2 = Array.make nb 0.0;
        })
      bump_lu
  end

let bump_size t = Array.length t.bump_rows

(* B x = b.  Permuted form: [U11 U12; 0 S] with U11 upper triangular in
   peel order. Solve S x2 = b2 first, then back-substitute the peeled
   columns in reverse peel order using the pivot rows. Every column a
   pivot row reaches other than its own pivot is a bump column or was
   peeled later, so it is solved by then. *)
let solve t b x =
  if Array.length b <> t.m || Array.length x <> t.m then
    invalid_arg "Sparse_lu.solve: size mismatch";
  if t.m > 0 && b == x then invalid_arg "Sparse_lu.solve: b and x alias";
  (match t.bump_lu with
  | None -> ()
  | Some lu ->
      Array.iteri (fun i r -> t.rhs2.(i) <- b.(r)) t.bump_rows;
      Dense.lu_solve lu t.rhs2 t.sol2;
      Array.iteri (fun i j -> x.(j) <- t.sol2.(i)) t.bump_cols);
  for tt = Array.length t.piv_row - 1 downto 0 do
    let r = t.piv_row.(tt) and c = t.piv_col.(tt) in
    let acc = ref b.(r) in
    for p = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      let jc = t.row_col.(p) in
      if jc <> c then acc := !acc -. (t.row_val.(p) *. x.(jc))
    done;
    x.(c) <- !acc /. t.piv_val.(tt)
  done

(* Bᵀ y = d.  Peeled columns resolve y at their pivot rows in forward
   peel order; the bump then solves Sᵀ y_b = d_b − U12ᵀ y_peeled. *)
let solve_transpose t d y =
  if Array.length d <> t.m || Array.length y <> t.m then
    invalid_arg "Sparse_lu.solve_transpose: size mismatch";
  if t.m > 0 && d == y then invalid_arg "Sparse_lu.solve_transpose: d and y alias";
  for tt = 0 to Array.length t.piv_row - 1 do
    let r = t.piv_row.(tt) and c = t.piv_col.(tt) in
    let acc = ref d.(c) in
    for p = t.col_start.(c) to t.col_start.(c + 1) - 1 do
      let ri = t.col_row.(p) in
      if ri <> r then acc := !acc -. (t.col_val.(p) *. y.(ri))
    done;
    y.(r) <- !acc /. t.piv_val.(tt)
  done;
  match t.bump_lu with
  | None -> ()
  | Some lu ->
      Array.iteri
        (fun i j ->
          let acc = ref d.(j) in
          for p = t.col_start.(j) to t.col_start.(j + 1) - 1 do
            let r = t.col_row.(p) in
            if not t.in_bump_row.(r) then acc := !acc -. (t.col_val.(p) *. y.(r))
          done;
          t.rhs2.(i) <- !acc)
        t.bump_cols;
      Dense.lu_solve_transpose lu t.rhs2 t.sol2;
      Array.iteri (fun i r -> y.(r) <- t.sol2.(i)) t.bump_rows
