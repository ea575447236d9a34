(* Process-global solver-metrics registry.

   Design constraints, in priority order:

   1. Near-zero overhead when disabled: every recording operation is a
      single atomic-flag read followed by a return — no allocation, no
      clock read, no hash lookup.  Cells are interned once (usually at
      module initialization) and held in module-level lets by the
      instrumented code.
   2. Safe and deterministic under `Rc_par.Pool`: every cell is sharded
      per domain (one cache-line-padded slot per domain), so recording
      never contends and never loses updates.  Reads merge the shards in
      fixed slot order at sync points (after a parallel region has
      quiesced), so integer metrics — counters, histograms — are
      bit-identical for any job count.  Floating-point merges (timers)
      are deterministic for a fixed job count but may differ across job
      counts by summation order; gauges are last-write-wins per domain.
   3. No dependencies beyond the stdlib and Rc_util (for JSON).

   Shard slots: slot 0..63 are reserved for `Rc_par.Pool` worker
   domains, which call [set_shard_slot id] (their stable worker id) at
   startup; the pool joins the previous generation's domains before
   spawning new ones, so a slot is never owned by two live domains.
   Any other domain (including the main domain) lazily draws a slot
   from 64..127 on first use.  Shards are cumulative: a slot re-used by
   a later domain keeps accumulating into the same totals, which is
   exactly what a process-global registry wants. *)

let capacity = 128

(* one cache line (8 words) per slot so domains never write the same
   line; histograms use a larger per-slot block, see below *)
let stride = 8

let spare = Atomic.make 0

let slot_key =
  Domain.DLS.new_key (fun () -> 64 + (Atomic.fetch_and_add spare 1 mod 64))

let set_shard_slot i = if i >= 0 && i < 64 then Domain.DLS.set slot_key i

let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

(* ---- cells ----------------------------------------------------------- *)

type counter = { c_name : string; c : int array }

type gauge = {
  g_name : string;
  gv : float array;  (* per-slot last value *)
  gn : int array;  (* per-slot set count *)
}

type timer = {
  t_name : string;
  tn : int array;  (* per-slot call count *)
  ts : float array;  (* per-slot total seconds *)
}

(* histogram per-slot block: count, sum, min, max, then n_buckets
   power-of-two buckets (bucket 0: v <= 0; bucket k: 2^(k-1) <= v < 2^k,
   top bucket open-ended) *)
let n_buckets = 32

let h_stride = 4 + n_buckets (* 36 words; block-per-slot, lines don't interleave *)

type histogram = { h_name : string; h : int array }

let init_histogram_slots a =
  for s = 0 to capacity - 1 do
    a.((s * h_stride) + 2) <- max_int;
    a.((s * h_stride) + 3) <- min_int
  done

type cell =
  | C of counter
  | G of gauge
  | T of timer
  | H of histogram

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | T _ -> "timer"
  | H _ -> "histogram"

(* ---- the registry ---------------------------------------------------- *)

(* the one name -> cell table every layer records into *)
let cells : (string, cell) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let intern name make same =
  Mutex.lock lock;
  let cell =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
        let c = make () in
        Hashtbl.add cells name c;
        c
  in
  Mutex.unlock lock;
  match same cell with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s" name (kind_name cell))

let counter name =
  intern name
    (fun () -> C { c_name = name; c = Array.make (capacity * stride) 0 })
    (function C c -> Some c | _ -> None)

let gauge name =
  intern name
    (fun () ->
      G
        {
          g_name = name;
          gv = Array.make (capacity * stride) 0.0;
          gn = Array.make (capacity * stride) 0;
        })
    (function G g -> Some g | _ -> None)

let timer name =
  intern name
    (fun () ->
      T
        {
          t_name = name;
          tn = Array.make (capacity * stride) 0;
          ts = Array.make (capacity * stride) 0.0;
        })
    (function T t -> Some t | _ -> None)

let histogram name =
  intern name
    (fun () ->
      let h = Array.make (capacity * h_stride) 0 in
      init_histogram_slots h;
      H { h_name = name; h })
    (function H h -> Some h | _ -> None)

(* ---- recording (the hot path) ---------------------------------------- *)

let add c n =
  if Atomic.get on then begin
    let i = Domain.DLS.get slot_key * stride in
    c.c.(i) <- c.c.(i) + n
  end

let incr c = add c 1

let set_gauge g v =
  if Atomic.get on then begin
    let i = Domain.DLS.get slot_key * stride in
    g.gv.(i) <- v;
    g.gn.(i) <- g.gn.(i) + 1
  end

let add_time t s =
  if Atomic.get on then begin
    let i = Domain.DLS.get slot_key * stride in
    t.tn.(i) <- t.tn.(i) + 1;
    t.ts.(i) <- t.ts.(i) +. s
  end

(* bucket k holds values needing k bits: 0 -> v <= 0, 1 -> 1, 2 -> 2..3,
   3 -> 4..7, ...; the top bucket absorbs everything wider *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    min !b (n_buckets - 1)
  end

let observe hist v =
  if Atomic.get on then begin
    let base = Domain.DLS.get slot_key * h_stride in
    let a = hist.h in
    a.(base) <- a.(base) + 1;
    a.(base + 1) <- a.(base + 1) + v;
    if v < a.(base + 2) then a.(base + 2) <- v;
    if v > a.(base + 3) then a.(base + 3) <- v;
    let b = base + 4 + bucket_of v in
    a.(b) <- a.(b) + 1
  end

(* ---- merged reads (sync points only) ---------------------------------- *)

type value =
  | Count of int
  | Gauge of float
  | Timer of { calls : int; total_s : float }
  | Hist of { n : int; sum : int; min : int; max : int; buckets : int array }

let count c =
  let acc = ref 0 in
  for s = 0 to capacity - 1 do
    acc := !acc + c.c.(s * stride)
  done;
  !acc

let gauge_value g =
  (* the shard that recorded the most sets wins; ties go to the lowest
     slot.  Exact last-write-wins under sequential use (one shard). *)
  let best = ref (-1) and best_n = ref 0 in
  for s = 0 to capacity - 1 do
    let n = g.gn.(s * stride) in
    if n > !best_n then begin
      best_n := n;
      best := s
    end
  done;
  if !best < 0 then nan else g.gv.(!best * stride)

let timer_value t =
  let calls = ref 0 and total = ref 0.0 in
  for s = 0 to capacity - 1 do
    calls := !calls + t.tn.(s * stride);
    total := !total +. t.ts.(s * stride)
  done;
  Timer { calls = !calls; total_s = !total }

let hist_value hist =
  let n = ref 0 and sum = ref 0 and mn = ref max_int and mx = ref min_int in
  let buckets = Array.make n_buckets 0 in
  for s = 0 to capacity - 1 do
    let base = s * h_stride in
    let a = hist.h in
    if a.(base) > 0 then begin
      n := !n + a.(base);
      sum := !sum + a.(base + 1);
      if a.(base + 2) < !mn then mn := a.(base + 2);
      if a.(base + 3) > !mx then mx := a.(base + 3);
      for b = 0 to n_buckets - 1 do
        buckets.(b) <- buckets.(b) + a.(base + 4 + b)
      done
    end
  done;
  if !n = 0 then Hist { n = 0; sum = 0; min = 0; max = 0; buckets }
  else Hist { n = !n; sum = !sum; min = !mn; max = !mx; buckets }

let value_of_cell = function
  | C c -> Count (count c)
  | G g -> Gauge (gauge_value g)
  | T t -> timer_value t
  | H h -> hist_value h

type snapshot = (string * value) list

let snapshot () =
  if not (Atomic.get on) then []
  else begin
    Mutex.lock lock;
    let entries = Hashtbl.fold (fun name cell acc -> (name, cell) :: acc) cells [] in
    Mutex.unlock lock;
    entries
    |> List.map (fun (name, cell) -> (name, value_of_cell cell))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  end

let value_of name =
  Mutex.lock lock;
  let cell = Hashtbl.find_opt cells name in
  Mutex.unlock lock;
  Option.map value_of_cell cell

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ cell ->
      match cell with
      | C c -> Array.fill c.c 0 (Array.length c.c) 0
      | G g ->
          Array.fill g.gv 0 (Array.length g.gv) 0.0;
          Array.fill g.gn 0 (Array.length g.gn) 0
      | T t ->
          Array.fill t.tn 0 (Array.length t.tn) 0;
          Array.fill t.ts 0 (Array.length t.ts) 0.0
      | H h ->
          Array.fill h.h 0 (Array.length h.h) 0;
          init_histogram_slots h.h)
    cells;
  Mutex.unlock lock

(* ---- snapshot algebra ------------------------------------------------- *)

let value_delta before after =
  match (before, after) with
  | Some (Count b), Count a -> if a = b then None else Some (Count (a - b))
  | None, Count a -> if a = 0 then None else Some (Count a)
  | Some (Gauge b), Gauge a ->
      if a = b || (Float.is_nan a && Float.is_nan b) then None else Some (Gauge a)
  | None, Gauge a -> if Float.is_nan a then None else Some (Gauge a)
  | Some (Timer b), Timer a ->
      if a.calls = b.calls then None
      else Some (Timer { calls = a.calls - b.calls; total_s = a.total_s -. b.total_s })
  | None, (Timer a as v) -> if a.calls = 0 then None else Some v
  | Some (Hist b), Hist a ->
      if a.n = b.n then None
      else
        (* counts and sums subtract exactly; min/max cannot be un-merged,
           so the delta reports the cumulative extremes seen so far *)
        Some
          (Hist
             {
               n = a.n - b.n;
               sum = a.sum - b.sum;
               min = a.min;
               max = a.max;
               buckets = Array.init n_buckets (fun i -> a.buckets.(i) - b.buckets.(i));
             })
  | None, (Hist a as v) -> if a.n = 0 then None else Some v
  | _ -> Some after (* kind changed: report the new value *)

let diff ~before ~after =
  List.filter_map
    (fun (name, a) -> Option.map (fun d -> (name, d)) (value_delta (List.assoc_opt name before) a))
    after

let strip_timers snap =
  List.filter (fun (_, v) -> match v with Timer _ -> false | _ -> true) snap

(* ---- fixed export table (shared-memory segment) ------------------------ *)

(* The solver counters exported field-by-field into the serve tier's
   mmap'd counter segment (Rc_serve.Shm).  The order is part of the shm
   layout version: append within a version, never reorder — readers
   index by position.  Names that are not interned in the running
   process export as 0. *)
let export_names =
  [|
    "sparse.cg.solves";
    "sparse.cg.iterations";
    "lp.simplex.pivots";
    "netflow.mcmf.solves";
    "netflow.mcmf.augmentations";
    "netflow.mcmf.flow_units";
    "netflow.assignment.replays";
    "assign.candidate_solves";
    "assign.tapcache.hits";
    "assign.tapcache.misses";
    "timing.sta.analyses";
    "timing.sta.pairs";
    "timing.sta.cone_recomputes";
    "timing.sta.cone_reuses";
    "ilp.rounding.rounds";
    (* appended for the ECO session tier (worker rows self-describe
       their solver-field count, so older readers stay compatible) *)
    "serve.session.opens";
    "serve.session.edits";
    "serve.session.evictions";
    "serve.session.rehydrations";
    "serve.session.resident";
  |]

(* collapse any cell kind to one shm-exportable integer *)
let export_value = function
  | Count n -> n
  | Gauge v -> if Float.is_nan v then 0 else int_of_float (Float.round v)
  | Timer { total_s; _ } -> int_of_float (Float.round (total_s *. 1000.0))
  | Hist { n; _ } -> n

let export_values () =
  Array.map
    (fun name -> match value_of name with None -> 0 | Some v -> export_value v)
    export_names

(* ---- rendering -------------------------------------------------------- *)

let value_text = function
  | Count n -> string_of_int n
  | Gauge v -> Printf.sprintf "%.4g" v
  | Timer { calls; total_s } -> Printf.sprintf "%d calls, %.3f s" calls total_s
  | Hist { n; sum; min; max; _ } ->
      if n = 0 then "empty"
      else
        Printf.sprintf "n %d, sum %d, min %d, max %d, mean %.1f" n sum min max
          (float_of_int sum /. float_of_int n)

let render ?(title = "Metrics") snap =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  if snap = [] then Buffer.add_string buf "  (registry disabled or empty)\n"
  else begin
    let w = List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 snap in
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-*s  %s\n" w name (value_text v)))
      snap
  end;
  Buffer.contents buf

let value_to_json =
  let module J = Rc_util.Json in
  function
  | Count n -> J.Int n
  | Gauge v -> J.Float v
  | Timer { calls; total_s } ->
      J.Obj [ ("calls", J.Int calls); ("total_s", J.Float total_s) ]
  | Hist { n; sum; min; max; buckets } ->
      J.Obj
        [
          ("n", J.Int n);
          ("sum", J.Int sum);
          ("min", J.Int min);
          ("max", J.Int max);
          ("log2_buckets", J.List (Array.to_list (Array.map (fun b -> J.Int b) buckets)));
        ]

let to_json snap =
  Rc_util.Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap)
