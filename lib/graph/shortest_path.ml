type result = { dist : float array; pred : int array }

let extract_cycle pred start n =
  (* Walk predecessors with visit stamps; the first revisited vertex
     closes the cycle. Falls back to the start vertex alone if the
     current predecessor chain no longer carries the cycle (the caller
     only relies on infeasibility being reported). *)
  let seen = Hashtbl.create 16 in
  let rec walk v steps =
    if v < 0 || steps > 2 * (n + 1) then [ start ]
    else if Hashtbl.mem seen v then begin
      (* collect vertices from v around the predecessor cycle *)
      let cycle = ref [] and u = ref (pred.(v)) in
      cycle := [ v ];
      while !u <> v && !u >= 0 do
        cycle := !u :: !cycle;
        u := pred.(!u)
      done;
      !cycle
    end
    else begin
      Hashtbl.add seen v ();
      walk pred.(v) (steps + 1)
    end
  in
  walk start 0

(* Predecessor-forest cycle check: any cycle among the pred pointers
   certifies a negative cycle (each pointer was set by a strictly
   improving relaxation, and distances only decrease, so the cycle's
   weight sum is < 0). Returns a vertex on such a cycle, or -1. *)
let pred_cycle pred mark n =
  Array.fill mark 0 n (-1);
  let found = ref (-1) in
  let v = ref 0 in
  while !found < 0 && !v < n do
    if mark.(!v) < 0 then begin
      (* walk up the chain, stamping with this walk's root; hitting our
         own stamp closes a cycle, an older stamp merges into a chain
         already cleared *)
      let u = ref !v in
      while !found < 0 && !u >= 0 && mark.(!u) < 0 do
        mark.(!u) <- !v;
        u := pred.(!u)
      done;
      if !found < 0 && !u >= 0 && mark.(!u) = !v then found := !u
    end;
    incr v
  done;
  !found

(* Queue-based Bellman-Ford (SPFA) over a frozen adjacency: near-linear
   on the sparse difference-constraint graphs of skew scheduling. A
   vertex dequeued more than |V| times certifies a reachable negative
   cycle; on infeasible graphs that certificate is O(|V|·|E|), so the
   predecessor forest is additionally scanned for a cycle every ~|V|
   successful relaxations — amortized O(1) per relaxation, and it fires
   as soon as the negative cycle materializes instead of after |V|
   revisits. Feasible graphs never grow a predecessor cycle, so their
   distance output (and hence every caller-visible result) is unchanged.
   The FIFO is an int ring of |V| slots: the in_queue guard keeps each
   vertex in it at most once. *)
let spfa (g : Digraph.frozen) ~sources =
  let n = Array.length g.Digraph.ptr - 1 in
  let ptr = g.Digraph.ptr and heads = g.Digraph.heads and weights = g.Digraph.weights in
  let dist = Array.make n infinity and pred = Array.make n (-1) in
  let in_queue = Array.make n false and dequeues = Array.make n 0 in
  let ring = Array.make (max n 1) 0 and head = ref 0 and len = ref 0 in
  let push v =
    let tail = !head + !len in
    ring.(if tail >= n then tail - n else tail) <- v;
    incr len
  in
  List.iter
    (fun s ->
      if dist.(s) <> 0.0 then begin
        dist.(s) <- 0.0;
        in_queue.(s) <- true;
        push s
      end)
    sources;
  let cycle_at = ref (-1) in
  let mark = Array.make (max n 1) (-1) in
  let relaxations = ref 0 in
  let check_every = max 64 n in
  while !len > 0 && !cycle_at < 0 do
    let u = ring.(!head) in
    head := if !head + 1 = n then 0 else !head + 1;
    decr len;
    in_queue.(u) <- false;
    dequeues.(u) <- dequeues.(u) + 1;
    if dequeues.(u) > n then cycle_at := u
    else begin
      let k = ref ptr.(u) in
      while !k < ptr.(u + 1) && !cycle_at < 0 do
        let v = heads.(!k) in
        (* dist.(u) is re-read per edge: a negative self-loop lowers it
           mid-scan *)
        let nd = dist.(u) +. weights.(!k) in
        if nd < dist.(v) -. 1e-12 then begin
          dist.(v) <- nd;
          pred.(v) <- u;
          incr relaxations;
          if !relaxations >= check_every then begin
            relaxations := 0;
            cycle_at := pred_cycle pred mark n
          end;
          if !cycle_at < 0 && not in_queue.(v) then begin
            in_queue.(v) <- true;
            push v
          end
        end;
        incr k
      done
    end
  done;
  if !cycle_at >= 0 then Either.Right (extract_cycle pred !cycle_at n)
  else Either.Left { dist; pred }

let potentials (g : Digraph.frozen) =
  match spfa g ~sources:(List.init (Array.length g.Digraph.ptr - 1) Fun.id) with
  | Either.Left { dist; _ } -> Some dist
  | Either.Right _ -> None

let feasible_potentials g = potentials (Digraph.freeze g)
