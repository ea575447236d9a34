type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* the k-th draw (from 1) mixes state + k·γ (mod 2⁶⁴), so skipping n
   draws adds n·γ *)
let offset t n = Int64.add t.state (Int64.mul (Int64.of_int n) golden_gamma)

let skip t n =
  if n < 0 then invalid_arg "Rng.skip: negative count";
  t.state <- offset t n

let ahead t n =
  if n < 0 then invalid_arg "Rng.ahead: negative count";
  { state = offset t n }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  let b = bits64 t in
  let v = Int64.to_int (Int64.shift_right_logical b 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 high bits give a uniform double in [0,1). *)
  let b = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float b /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let gaussian t ~mean ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 1e-300 then nonzero () else u
  in
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  mean +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
