type 'a t = {
  mutable keys : float array;
  mutable vals : 'a option array;
  mutable n : int;
}

let create ?(capacity = 16) () =
  { keys = Array.make (max capacity 1) 0.0; vals = Array.make (max capacity 1) None; n = 0 }

let size h = h.n
let is_empty h = h.n = 0

let grow h =
  let cap = Array.length h.keys in
  let keys = Array.make (2 * cap) 0.0 and vals = Array.make (2 * cap) None in
  Array.blit h.keys 0 keys 0 h.n;
  Array.blit h.vals 0 vals 0 h.n;
  h.keys <- keys;
  h.vals <- vals

let swap h i j =
  let k = h.keys.(i) and v = h.vals.(i) in
  h.keys.(i) <- h.keys.(j);
  h.vals.(i) <- h.vals.(j);
  h.keys.(j) <- k;
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if h.keys.(p) > h.keys.(i) then begin
      swap h i p;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.n && h.keys.(l) < h.keys.(i) then l else i in
  let m = if r < h.n && h.keys.(r) < h.keys.(m) then r else m in
  if m <> i then begin
    swap h i m;
    sift_down h m
  end

let push h key v =
  if h.n = Array.length h.keys then grow h;
  h.keys.(h.n) <- key;
  h.vals.(h.n) <- Some v;
  h.n <- h.n + 1;
  sift_up h (h.n - 1)

let pop_min h =
  if h.n = 0 then None
  else begin
    let k = h.keys.(0) and v = h.vals.(0) in
    h.n <- h.n - 1;
    h.keys.(0) <- h.keys.(h.n);
    h.vals.(0) <- h.vals.(h.n);
    h.vals.(h.n) <- None;
    if h.n > 0 then sift_down h 0;
    match v with Some v -> Some (k, v) | None -> assert false
  end

let clear h =
  Array.fill h.vals 0 h.n None;
  h.n <- 0
