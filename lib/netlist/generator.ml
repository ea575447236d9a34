open Rc_util

type config = {
  name : string;
  n_logic : int;
  n_ffs : int;
  n_nets : int;
  n_inputs : int;
  n_outputs : int;
  depth : int;
  max_fanin : int;
  clusters : int;
  locality : float;
  chip : Rc_geom.Rect.t;
  seed : int;
}

let default_config =
  {
    name = "smoke200";
    n_logic = 200;
    n_ffs = 24;
    n_nets = 210;
    n_inputs = 8;
    n_outputs = 8;
    depth = 8;
    max_fanin = 3;
    clusters = 4;
    locality = 0.85;
    chip = Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2200.0 ~ymax:2200.0;
    seed = 1;
  }

let pad_ring_positions chip count =
  (* evenly spaced positions walking the die boundary clockwise *)
  let open Rc_geom in
  let w = Rect.width chip and h = Rect.height chip in
  let perimeter = 2.0 *. (w +. h) in
  List.init count (fun i ->
      let d = float_of_int i /. float_of_int count *. perimeter in
      if d < w then Point.make (chip.Rect.xmin +. d) chip.Rect.ymin
      else if d < w +. h then Point.make chip.Rect.xmax (chip.Rect.ymin +. (d -. w))
      else if d < (2.0 *. w) +. h then
        Point.make (chip.Rect.xmax -. (d -. w -. h)) chip.Rect.ymax
      else Point.make chip.Rect.xmin (chip.Rect.ymax -. (d -. (2.0 *. w) -. h)))

type hier_config = {
  hname : string;
  n_cells : int;
  ff_fraction : float;
  rent_exponent : float;
  rent_coeff : float;
  block_cells : int;
  branching : int;
  hdepth : int;
  hmax_fanin : int;
  hchip : Rc_geom.Rect.t;
  hseed : int;
}

let hier ?(block_cells = 4096) ~name ~n_cells ~chip ~seed () =
  {
    hname = name;
    n_cells;
    ff_fraction = 0.12;
    rent_exponent = 0.65;
    rent_coeff = 3.0;
    block_cells;
    branching = 4;
    hdepth = 10;
    hmax_fanin = 3;
    hchip = chip;
    hseed = seed;
  }

(* Growable flat edge buffer — the whole hierarchical build streams
   (driver, sink) pairs into two int arrays and only materializes
   per-net sink arrays at the very end, so generation stays O(edges)
   in both time and allocation at million-cell scale. *)
type ebuf = { mutable esrc : int array; mutable edst : int array; mutable elen : int }

let ebuf_push b s d =
  let cap = Array.length b.esrc in
  if b.elen = cap then begin
    let nsrc = Array.make (2 * cap) 0 and ndst = Array.make (2 * cap) 0 in
    Array.blit b.esrc 0 nsrc 0 b.elen;
    Array.blit b.edst 0 ndst 0 b.elen;
    b.esrc <- nsrc;
    b.edst <- ndst
  end;
  b.esrc.(b.elen) <- s;
  b.edst.(b.elen) <- d;
  b.elen <- b.elen + 1

let hier_counts cfg =
  let nc = cfg.n_cells in
  let n_blocks = max 1 (nc / cfg.block_cells) in
  let bstart i = i * nc / n_blocks in
  let nff_of m = max 1 (int_of_float ((cfg.ff_fraction *. float_of_int m) +. 0.5)) in
  let ffs = ref 0 in
  for b = 0 to n_blocks - 1 do
    let m = bstart (b + 1) - bstart b in
    ffs := !ffs + min (m - 1) (nff_of m)
  done;
  (nc - !ffs, !ffs)

let generate_hier cfg =
  if cfg.n_cells < 16 then invalid_arg "Generator.generate_hier: n_cells < 16";
  if cfg.hdepth < 2 then invalid_arg "Generator.generate_hier: depth < 2";
  if cfg.hmax_fanin < 1 then invalid_arg "Generator.generate_hier: max_fanin < 1";
  if cfg.block_cells < 8 then invalid_arg "Generator.generate_hier: block_cells < 8";
  if cfg.branching < 2 then invalid_arg "Generator.generate_hier: branching < 2";
  if cfg.ff_fraction <= 0.0 || cfg.ff_fraction >= 0.5 then
    invalid_arg "Generator.generate_hier: ff_fraction out of (0, 0.5)";
  let rng = Rng.create cfg.hseed in
  let nc = cfg.n_cells in
  (* Rent's rule sizes the pad ring: T = t * G^p terminals for the whole
     die, split evenly between inputs and outputs. *)
  let rent g = cfg.rent_coeff *. (float_of_int g ** cfg.rent_exponent) in
  let n_io = max 16 (int_of_float (rent nc /. 2.0)) in
  let n_in = n_io / 2 in
  let n_out = n_io - n_in in
  let in_first = nc and out_first = nc + n_in in
  let n = nc + n_in + n_out in
  (* Even split into leaf blocks of ~block_cells; block i covers the
     contiguous id range [start i, start (i+1)). Within a block the
     first cells are its flip-flops (level 0) and the rest is logic,
     stratified so the level of a logic cell is a function of its index
     — every "random driver below level v" draw is then a single
     [Rng.int] over a prefix range, no per-level pools. *)
  let n_blocks = max 1 (nc / cfg.block_cells) in
  let bstart i = i * nc / n_blocks in
  let nff_of m = max 1 (int_of_float ((cfg.ff_fraction *. float_of_int m) +. 0.5)) in
  let kinds = Array.make n Netlist.Logic in
  let level = Array.make n 0 in
  for b = 0 to n_blocks - 1 do
    let s = bstart b and e = bstart (b + 1) in
    let m = e - s in
    let nff = min (m - 1) (nff_of m) in
    let nlogic = m - nff in
    for i = 0 to nff - 1 do
      kinds.(s + i) <- Netlist.Flipflop
    done;
    for j = 0 to nlogic - 1 do
      level.(s + nff + j) <- 1 + (j * cfg.hdepth / nlogic)
    done
  done;
  for c = in_first to out_first - 1 do
    kinds.(c) <- Netlist.Input_pad
  done;
  for c = out_first to n - 1 do
    kinds.(c) <- Netlist.Output_pad
  done;
  let edges =
    { esrc = Array.make (4 * nc) 0; edst = Array.make (4 * nc) 0; elen = 0 }
  in
  (* intra-block fan-ins and FF D-inputs *)
  let picks = Array.make (max cfg.hmax_fanin 1) (-1) in
  for b = 0 to n_blocks - 1 do
    let s = bstart b and e = bstart (b + 1) in
    let m = e - s in
    let nff = min (m - 1) (nff_of m) in
    let nlogic = m - nff in
    for j = 0 to nlogic - 1 do
      let c = s + nff + j in
      let v = level.(c) in
      (* drivers strictly below level v: the block's FFs plus the logic
         prefix whose stratified level is <= v - 1 *)
      let k_lo = min nlogic ((((v - 1) * nlogic) + cfg.hdepth - 1) / cfg.hdepth) in
      let pool = nff + k_lo in
      let k = 1 + Rng.int rng cfg.hmax_fanin in
      let n_picked = ref 0 in
      for _ = 1 to k do
        let r = Rng.int rng pool in
        let src = if r < nff then s + r else s + nff + (r - nff) in
        let dup = ref false in
        for q = 0 to !n_picked - 1 do
          if picks.(q) = src then dup := true
        done;
        if not !dup then begin
          picks.(!n_picked) <- src;
          incr n_picked;
          ebuf_push edges src c
        end
      done
    done;
    (* FF D-inputs come from the deep half of the block's logic, closing
       mostly-local FF->FF timing paths *)
    let k_half = min (nlogic - 1) (cfg.hdepth / 2 * nlogic / cfg.hdepth) in
    for i = 0 to nff - 1 do
      let src = s + nff + k_half + Rng.int rng (nlogic - k_half) in
      ebuf_push edges src (s + i)
    done
  done;
  (* Rent's-rule cross-block connectivity: at hierarchy level l the
     blocks group by branching^l; every group sources ceil(t * g^p)
     edges into sibling groups under the same parent. Sinks are chosen
     level-up (logic above the source's level, or a flip-flop), so the
     combinational graph stays acyclic across blocks. *)
  let pick_in_block b min_level =
    let s = bstart b and e = bstart (b + 1) in
    let m = e - s in
    let nff = min (m - 1) (nff_of m) in
    let nlogic = m - nff in
    let k_v = min nlogic (((min_level * nlogic) + cfg.hdepth - 1) / cfg.hdepth) in
    let pool = nff + (nlogic - k_v) in
    let r = Rng.int rng pool in
    if r < nff then s + r else s + nff + k_v + (r - nff)
  in
  let group_blocks = ref 1 in
  while !group_blocks < n_blocks do
    let gb = !group_blocks in
    let n_groups = (n_blocks + gb - 1) / gb in
    for g = 0 to n_groups - 1 do
      let gs = bstart (g * gb) and ge = bstart (min n_blocks ((g + 1) * gb)) in
      let ext = int_of_float (Float.ceil (rent (ge - gs))) in
      let parent = g / cfg.branching in
      let sib_lo = parent * cfg.branching in
      let sib_hi = min n_groups (sib_lo + cfg.branching) in
      let n_sibs = sib_hi - sib_lo in
      for _ = 1 to ext do
        let src = gs + Rng.int rng (ge - gs) in
        let tg =
          if n_sibs > 1 then begin
            let o = sib_lo + Rng.int rng (n_sibs - 1) in
            if o >= g then o + 1 else o
          end
          else begin
            let o = Rng.int rng (n_groups - 1) in
            if o >= g then o + 1 else o
          end
        in
        let tb = (tg * gb) + Rng.int rng (min n_blocks ((tg + 1) * gb) - (tg * gb)) in
        ebuf_push edges src (pick_in_block tb level.(src))
      done
    done;
    group_blocks := gb * cfg.branching
  done;
  (* primary inputs fan out to a few logic cells anywhere *)
  for c = in_first to out_first - 1 do
    let k = 1 + Rng.int rng 3 in
    for _ = 1 to k do
      ebuf_push edges c (pick_in_block (Rng.int rng n_blocks) 0)
    done
  done;
  (* out-degree census; every movable driver must end with a sink, so
     danglers (mostly top-level logic) feed the output-pad ring *)
  let outdeg = Array.make n 0 in
  for i = 0 to edges.elen - 1 do
    outdeg.(edges.esrc.(i)) <- outdeg.(edges.esrc.(i)) + 1
  done;
  for c = 0 to nc - 1 do
    if outdeg.(c) = 0 then begin
      ebuf_push edges c (out_first + (c mod n_out));
      outdeg.(c) <- 1
    end
  done;
  (* CSR by driver, preserving per-driver emission order *)
  let off = Array.make (n + 1) 0 in
  for c = 0 to n - 1 do
    off.(c + 1) <- off.(c) + outdeg.(c)
  done;
  let cursor = Array.make n 0 in
  let csr_dst = Array.make edges.elen 0 in
  for i = 0 to edges.elen - 1 do
    let s = edges.esrc.(i) in
    csr_dst.(off.(s) + cursor.(s)) <- edges.edst.(i);
    cursor.(s) <- cursor.(s) + 1
  done;
  let nets = Array.make (nc + n_in) { Netlist.driver = 0; sinks = [||] } in
  let ni = ref 0 in
  for c = 0 to n - 1 do
    if outdeg.(c) > 0 then begin
      nets.(!ni) <-
        { Netlist.driver = c; sinks = Array.sub csr_dst off.(c) outdeg.(c) };
      incr ni
    end
  done;
  let nets = if !ni = Array.length nets then nets else Array.sub nets 0 !ni in
  let pad_ids = List.init (n_in + n_out) (fun i -> in_first + i) in
  let pad_positions =
    List.combine pad_ids (pad_ring_positions cfg.hchip (n_in + n_out))
  in
  Netlist.make ~name:cfg.hname ~kinds ~nets ~pad_positions

let generate cfg =
  if cfg.n_logic <= 0 || cfg.n_ffs <= 0 then invalid_arg "Generator.generate: empty circuit";
  if cfg.depth < 1 then invalid_arg "Generator.generate: depth < 1";
  if cfg.max_fanin < 1 then invalid_arg "Generator.generate: max_fanin < 1";
  let n_logic_drivers = cfg.n_nets - cfg.n_ffs - cfg.n_inputs in
  if n_logic_drivers <= 0 || n_logic_drivers > cfg.n_logic then
    invalid_arg "Generator.generate: n_nets inconsistent with cell counts";
  let rng = Rng.create cfg.seed in
  let n = cfg.n_logic + cfg.n_ffs + cfg.n_inputs + cfg.n_outputs in
  let logic c = c < cfg.n_logic in
  let ff_first = cfg.n_logic in
  let in_first = cfg.n_logic + cfg.n_ffs in
  let out_first = in_first + cfg.n_inputs in
  let kinds =
    Array.init n (fun c ->
        if logic c then Netlist.Logic
        else if c < in_first then Netlist.Flipflop
        else if c < out_first then Netlist.Input_pad
        else Netlist.Output_pad)
  in
  (* choose which logic cells drive nets *)
  let logic_perm = Array.init cfg.n_logic Fun.id in
  Rng.shuffle rng logic_perm;
  let drives = Array.make n false in
  for k = 0 to n_logic_drivers - 1 do
    drives.(logic_perm.(k)) <- true
  done;
  for c = ff_first to out_first - 1 do
    drives.(c) <- true
  done;
  (* levelize: logic in 1..depth; sources (FFs + inputs) at 0 *)
  let level = Array.make n 0 in
  for c = 0 to cfg.n_logic - 1 do
    level.(c) <- 1 + Rng.int rng cfg.depth
  done;
  if cfg.clusters < 1 then invalid_arg "Generator.generate: clusters < 1";
  if cfg.locality < 0.0 || cfg.locality > 1.0 then
    invalid_arg "Generator.generate: locality out of [0,1]";
  (* locality clusters: logic, flip-flops and input pads each belong to a
     cluster; connectivity mostly stays inside it *)
  let cluster = Array.init n (fun _ -> Rng.int rng cfg.clusters) in
  (* pools of drivers per level, global and per cluster *)
  let by_level = Array.make (cfg.depth + 1) [] in
  let by_level_cl = Array.init (cfg.depth + 1) (fun _ -> Array.make cfg.clusters []) in
  for c = 0 to n - 1 do
    if drives.(c) && kinds.(c) <> Netlist.Output_pad then begin
      by_level.(level.(c)) <- c :: by_level.(level.(c));
      by_level_cl.(level.(c)).(cluster.(c)) <- c :: by_level_cl.(level.(c)).(cluster.(c))
    end
  done;
  let by_level = Array.map Array.of_list by_level in
  let by_level_cl = Array.map (Array.map Array.of_list) by_level_cl in
  if Array.length by_level.(0) = 0 then invalid_arg "Generator.generate: no level-0 sources";
  let sinks_of = Array.make n [] in
  let connect driver sink =
    if driver <> sink then sinks_of.(driver) <- sink :: sinks_of.(driver)
  in
  let pick_source v cl =
    (* a driver strictly below level v, biased toward the previous level
       and (with probability [locality]) toward the same cluster *)
    let local = Rng.float rng 1.0 < cfg.locality in
    let pool_at u =
      if local && Array.length by_level_cl.(u).(cl) > 0 then by_level_cl.(u).(cl)
      else by_level.(u)
    in
    let lvl =
      if v >= 1 && Rng.float rng 1.0 < 0.6 && Array.length (pool_at (v - 1)) > 0 then v - 1
      else begin
        let rec try_level attempts =
          if attempts = 0 then 0
          else
            let u = Rng.int rng v in
            if Array.length (pool_at u) > 0 then u else try_level (attempts - 1)
        in
        try_level 8
      end
    in
    Rng.choose rng (pool_at lvl)
  in
  (* fan-ins for every logic cell (drivers and sink-only cells alike) *)
  for c = 0 to cfg.n_logic - 1 do
    let k = 1 + Rng.int rng cfg.max_fanin in
    let chosen = Hashtbl.create 4 in
    for _ = 1 to k do
      let s = pick_source level.(c) cluster.(c) in
      if not (Hashtbl.mem chosen s) then begin
        Hashtbl.add chosen s ();
        connect s c
      end
    done
  done;
  (* flip-flop D inputs: prefer deep logic of the same cluster to create
     long, mostly-local FF->FF paths *)
  let logic_drivers_where pred =
    Array.of_list (List.filter (fun c -> logic c && drives.(c) && pred c) (List.init cfg.n_logic Fun.id))
  in
  let deep_drivers = logic_drivers_where (fun c -> level.(c) > cfg.depth / 2) in
  let any_logic_drivers = logic_drivers_where (fun _ -> true) in
  let deep_by_cluster =
    Array.init cfg.clusters (fun cl ->
        Array.of_list
          (List.filter (fun c -> cluster.(c) = cl) (Array.to_list deep_drivers)))
  in
  for f = ff_first to in_first - 1 do
    let local_pool = deep_by_cluster.(cluster.(f)) in
    let pool =
      if Rng.float rng 1.0 < cfg.locality && Array.length local_pool > 0 then local_pool
      else if Array.length deep_drivers > 0 then deep_drivers
      else any_logic_drivers
    in
    connect (Rng.choose rng pool) f
  done;
  (* output pads *)
  for o = out_first to n - 1 do
    let pool = if Array.length any_logic_drivers > 0 then any_logic_drivers else by_level.(0) in
    connect (Rng.choose rng pool) o
  done;
  (* every driver must end with at least one sink: a logic cell above
     its level, otherwise an output pad *)
  let logic_above =
    Array.init (cfg.depth + 1) (fun v ->
        Array.of_list (List.filter (fun d -> level.(d) > v) (List.init cfg.n_logic Fun.id)))
  in
  for c = 0 to n - 1 do
    if drives.(c) && sinks_of.(c) = [] then begin
      let candidates = logic_above.(level.(c)) in
      let len = Array.length candidates in
      if len = 0 then begin
        if cfg.n_outputs > 0 then connect c (out_first + Rng.int rng cfg.n_outputs)
        else connect c (ff_first + Rng.int rng cfg.n_ffs)
      end
      else connect c candidates.(Rng.int rng len)
    end
  done;
  let nets =
    Array.of_list
      (List.filter_map
         (fun c ->
           if drives.(c) && sinks_of.(c) <> [] then
             Some { Netlist.driver = c; sinks = Array.of_list (List.rev sinks_of.(c)) }
           else None)
         (List.init n Fun.id))
  in
  let pad_ids =
    List.init (cfg.n_inputs + cfg.n_outputs) (fun i -> in_first + i)
  in
  let pad_positions =
    List.combine pad_ids (pad_ring_positions cfg.chip (List.length pad_ids))
  in
  Netlist.make ~name:cfg.name ~kinds ~nets ~pad_positions
