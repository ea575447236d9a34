type sense = Le | Ge | Eq

type var = {
  mutable lo : float;
  mutable hi : float;
  obj : float;
}

type row = { coeffs : (int * float) list; sense : sense; rhs : float }

type t = {
  mutable vars : var array;
  mutable nv : int;
  mutable rows : row array;
  mutable nr : int;
}

let create () =
  {
    vars = Array.init 8 (fun _ -> { lo = neg_infinity; hi = infinity; obj = 0.0 });
    nv = 0;
    rows = Array.make 8 { coeffs = []; sense = Eq; rhs = 0.0 };
    nr = 0;
  }

let ensure_var_capacity t =
  if t.nv = Array.length t.vars then begin
    let bigger =
      Array.init (2 * t.nv) (fun i ->
          if i < t.nv then t.vars.(i)
          else { lo = neg_infinity; hi = infinity; obj = 0.0 })
    in
    t.vars <- bigger
  end

let add_var ?(lo = neg_infinity) ?(hi = infinity) ?(obj = 0.0) t =
  if lo > hi then invalid_arg "Problem.add_var: lo > hi";
  ensure_var_capacity t;
  t.vars.(t.nv) <- { lo; hi; obj };
  t.nv <- t.nv + 1;
  t.nv - 1

let check_var t j name =
  if j < 0 || j >= t.nv then invalid_arg ("Problem." ^ name ^ ": var out of range")

let set_bounds t j ~lo ~hi =
  check_var t j "set_bounds";
  if lo > hi then invalid_arg "Problem.set_bounds: lo > hi";
  t.vars.(j).lo <- lo;
  t.vars.(j).hi <- hi

let dedup coeffs =
  let tbl = Hashtbl.create (List.length coeffs) in
  List.iter
    (fun (j, v) ->
      let cur = Option.value (Hashtbl.find_opt tbl j) ~default:0.0 in
      Hashtbl.replace tbl j (cur +. v))
    coeffs;
  Hashtbl.fold (fun j v acc -> if v <> 0.0 then (j, v) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let add_row t coeffs sense rhs =
  List.iter (fun (j, _) -> check_var t j "add_row") coeffs;
  if t.nr = Array.length t.rows then begin
    let bigger =
      Array.init (2 * t.nr) (fun i ->
          if i < t.nr then t.rows.(i) else { coeffs = []; sense = Eq; rhs = 0.0 })
    in
    t.rows <- bigger
  end;
  t.rows.(t.nr) <- { coeffs = dedup coeffs; sense; rhs };
  t.nr <- t.nr + 1;
  t.nr - 1

let n_vars t = t.nv
let n_rows t = t.nr

let var_lo t j =
  check_var t j "var_lo";
  t.vars.(j).lo

let var_hi t j =
  check_var t j "var_hi";
  t.vars.(j).hi

let var_obj t j =
  check_var t j "var_obj";
  t.vars.(j).obj

let iter_rows t f =
  for i = 0 to t.nr - 1 do
    let r = t.rows.(i) in
    f i r.coeffs r.sense r.rhs
  done
