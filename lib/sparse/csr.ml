type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n_rows : int;
  n_cols : int;
  row_ptr : ivec;  (* length n_rows + 1 *)
  col_idx : ivec;
  values : Vec.t;
}

external spmv_unsafe : ivec -> ivec -> Vec.t -> Vec.t -> Vec.t -> unit = "rc_csr_spmv"
  [@@noalloc]

let rows t = t.n_rows
let cols t = t.n_cols
let nnz t = Vec.length t.values

let ivec_of_array a =
  let v = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i x -> v.{i} <- x) a;
  v

let of_triplets ~rows:n_rows ~cols:n_cols triplets =
  if n_rows < 0 || n_cols < 0 then invalid_arg "Csr.of_triplets: negative dims";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= n_rows || j < 0 || j >= n_cols then
        invalid_arg "Csr.of_triplets: index out of range")
    triplets;
  (* Accumulate duplicates per row with a per-row association table. *)
  let row_tbls = Array.init n_rows (fun _ -> Hashtbl.create 4) in
  List.iter
    (fun (i, j, v) ->
      let tbl = row_tbls.(i) in
      let cur = Option.value (Hashtbl.find_opt tbl j) ~default:0.0 in
      Hashtbl.replace tbl j (cur +. v))
    triplets;
  let row_entries =
    Array.map
      (fun tbl ->
        let entries =
          Hashtbl.fold (fun j v acc -> if v <> 0.0 then (j, v) :: acc else acc) tbl []
        in
        List.sort (fun (a, _) (b, _) -> compare a b) entries)
      row_tbls
  in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 row_entries in
  let row_ptr = Array.make (n_rows + 1) 0 in
  let col_idx = Array.make total 0 and values = Array.make total 0.0 in
  let k = ref 0 in
  Array.iteri
    (fun i entries ->
      row_ptr.(i) <- !k;
      List.iter
        (fun (j, v) ->
          col_idx.(!k) <- j;
          values.(!k) <- v;
          incr k)
        entries)
    row_entries;
  row_ptr.(n_rows) <- !k;
  {
    n_rows;
    n_cols;
    row_ptr = ivec_of_array row_ptr;
    col_idx = ivec_of_array col_idx;
    values = Vec.of_array values;
  }

(* Array-buffer twin of [of_triplets], for million-entry assemblies: no
   per-row hashtables, no boxed triplet list.  Entries are the first
   [len] slots of three parallel arrays.  Duplicate (i, j) slots are
   summed left-associatively in REVERSE entry order — exactly the order
   [of_triplets] sums a prepend-built list — and exact-zero sums are
   dropped, so a caller that switches from prepending triplets to
   pushing array entries gets a bit-identical matrix. *)
let of_entries ~rows:n_rows ~cols:n_cols ~len ri ci vs =
  if n_rows < 0 || n_cols < 0 then invalid_arg "Csr.of_entries: negative dims";
  if len < 0 || len > Array.length ri || len > Array.length ci || len > Array.length vs
  then invalid_arg "Csr.of_entries: bad length";
  for k = 0 to len - 1 do
    if ri.(k) < 0 || ri.(k) >= n_rows || ci.(k) < 0 || ci.(k) >= n_cols then
      invalid_arg "Csr.of_entries: index out of range"
  done;
  (* two stable counting passes (LSD radix on (row, col)): entry slots
     by column, visiting k descending, then stably by row.  Each row's
     slots come out in column order with ties in descending entry index,
     i.e. reverse entry order, so the duplicate sums below run in list
     order of the prepend-built equivalent *)
  let counting_pass ~buckets key src dst =
    let cursor = Array.make (buckets + 1) 0 in
    Array.iter (fun k -> cursor.(key.(k) + 1) <- cursor.(key.(k) + 1) + 1) src;
    for b = 1 to buckets do
      cursor.(b) <- cursor.(b) + cursor.(b - 1)
    done;
    Array.iter
      (fun k ->
        dst.(cursor.(key.(k))) <- k;
        cursor.(key.(k)) <- cursor.(key.(k)) + 1)
      src;
    cursor
  in
  let by_col = Array.make len 0 and slot = Array.make len 0 in
  ignore (counting_pass ~buckets:n_cols ci (Array.init len (fun k -> len - 1 - k)) by_col);
  (* the row pass returns its cursors: row_end.(i) is one past row i's
     last slot *)
  let row_end = counting_pass ~buckets:n_rows ri by_col slot in
  let row_ptr = Array.make (n_rows + 1) 0 in
  let col_idx = Array.make len 0 and values = Array.make len 0.0 in
  let out = ref 0 and k = ref 0 in
  for i = 0 to n_rows - 1 do
    row_ptr.(i) <- !out;
    while !k < row_end.(i) do
      let col = ci.(slot.(!k)) in
      let acc = ref vs.(slot.(!k)) in
      incr k;
      while !k < row_end.(i) && ci.(slot.(!k)) = col do
        acc := !acc +. vs.(slot.(!k));
        incr k
      done;
      if !acc <> 0.0 then begin
        col_idx.(!out) <- col;
        values.(!out) <- !acc;
        incr out
      end
    done
  done;
  row_ptr.(n_rows) <- !out;
  {
    n_rows;
    n_cols;
    row_ptr = ivec_of_array row_ptr;
    col_idx = ivec_of_array (Array.sub col_idx 0 !out);
    values = Vec.of_array (Array.sub values 0 !out);
  }

(* storage slot of entry (i, j), or -1 when structurally absent *)
let slot t i j =
  let lo = ref t.row_ptr.{i} and hi = ref (t.row_ptr.{i + 1} - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.{mid} in
    if c = j then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let get t i j =
  if i < 0 || i >= t.n_rows || j < 0 || j >= t.n_cols then
    invalid_arg "Csr.get: index out of range";
  let k = slot t i j in
  if k < 0 then 0.0 else t.values.{k}

let with_diagonal t d =
  if t.n_rows <> t.n_cols then invalid_arg "Csr.with_diagonal: not square";
  if Array.length d <> t.n_rows then invalid_arg "Csr.with_diagonal: size mismatch";
  let values = Vec.create (nnz t) in
  Vec.blit t.values values;
  for i = 0 to t.n_rows - 1 do
    let k = slot t i i in
    if k < 0 then invalid_arg "Csr.with_diagonal: diagonal entry not stored";
    values.{k} <- d.(i)
  done;
  { t with values }

let spmv t x y =
  if Vec.length x <> t.n_cols || Vec.length y <> t.n_rows then
    invalid_arg "Csr.spmv: size mismatch";
  spmv_unsafe t.row_ptr t.col_idx t.values x y

let diag_into_vec t out =
  if t.n_rows <> t.n_cols then invalid_arg "Csr.diag_into_vec: not square";
  if Vec.length out <> t.n_rows then invalid_arg "Csr.diag_into_vec: size mismatch";
  for i = 0 to t.n_rows - 1 do
    out.{i} <- get t i i
  done

let iter_row t i f =
  if i < 0 || i >= t.n_rows then invalid_arg "Csr.iter_row: row out of range";
  for k = t.row_ptr.{i} to t.row_ptr.{i + 1} - 1 do
    f t.col_idx.{k} t.values.{k}
  done
