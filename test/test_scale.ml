(* Scaling-path tests: the hierarchical Rent's-rule generator
   (determinism, Rent exponent sanity, structural guarantees) and a
   scaled-down full-flow smoke over the domain pool. *)

open Rc_core

let with_jobs n f =
  Rc_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Rc_par.Pool.set_jobs 1) f

(* the die of a g×g ring array at the suite's ring pitch *)
let chip_of_grid g =
  let side = float_of_int g *. Bench_suite.ring_pitch in
  Rc_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:side ~ymax:side

let chip = chip_of_grid 4

let small_cfg seed =
  Rc_netlist.Generator.hier ~name:"hier8k" ~n_cells:8192 ~block_cells:512
    ~chip ~seed ()

let test_determinism () =
  let d seed =
    Digest.string
      (Rc_netlist.Serialize.to_string ~chip
         (Rc_netlist.Generator.generate_hier (small_cfg seed)))
  in
  Alcotest.(check string) "same seed, same digest" (d 7) (d 7);
  Alcotest.(check bool) "different seed, different digest" true (d 7 <> d 8)

let test_structure () =
  let cfg = small_cfg 5 in
  let nl = Rc_netlist.Generator.generate_hier cfg in
  let n_logic, n_ffs = Rc_netlist.Generator.hier_counts cfg in
  Alcotest.(check int) "hier_counts logic" n_logic
    (Array.length (Rc_netlist.Netlist.logic_cells nl));
  Alcotest.(check int) "hier_counts ffs" n_ffs (Rc_netlist.Netlist.n_ffs nl);
  (* every movable cell drives a net; every FF and logic cell sinks *)
  let ok_drive = ref true and ok_sink = ref true in
  for c = 0 to Rc_netlist.Netlist.n_cells nl - 1 do
    if Rc_netlist.Netlist.movable nl c then begin
      if Rc_netlist.Netlist.driver_net nl c < 0 then ok_drive := false;
      if Rc_netlist.Netlist.fanin_nets nl c = [] then ok_sink := false
    end
  done;
  Alcotest.(check bool) "every movable cell drives" true !ok_drive;
  Alcotest.(check bool) "every movable cell sinks" true !ok_sink

(* Combinational acyclicity: the levelization must admit a topological
   order, i.e. a DFS over logic-to-logic edges finds no back edge. *)
let test_acyclic () =
  let nl = Rc_netlist.Generator.generate_hier (small_cfg 11) in
  let n = Rc_netlist.Netlist.n_cells nl in
  let state = Array.make n 0 in
  (* iterative DFS: 0 = white, 1 = on stack, 2 = done *)
  let cyclic = ref false in
  let logic c = Rc_netlist.Netlist.kind nl c = Rc_netlist.Netlist.Logic in
  let succs c =
    let ni = Rc_netlist.Netlist.driver_net nl c in
    if ni < 0 then [||] else (Rc_netlist.Netlist.net nl ni).Rc_netlist.Netlist.sinks
  in
  for root = 0 to n - 1 do
    if logic root && state.(root) = 0 then begin
      let stack = ref [ (root, 0) ] in
      state.(root) <- 1;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (c, i) :: rest ->
            let s = succs c in
            if i < Array.length s then begin
              stack := (c, i + 1) :: rest;
              let u = s.(i) in
              if logic u then
                if state.(u) = 1 then cyclic := true
                else if state.(u) = 0 then begin
                  state.(u) <- 1;
                  stack := (u, 0) :: !stack
                end
            end
            else begin
              state.(c) <- 2;
              stack := rest
            end
      done
    end
  done;
  Alcotest.(check bool) "combinational logic is acyclic" false !cyclic

(* Rent's rule: mean external net terminals of a cell group should grow
   as T = t * g^p with p well below 1 (pure locality would be ~0, a
   random graph ~1). Measured at the leaf-block and branching^1 group
   sizes of an 8k-cell circuit; the estimated exponent must land in a
   generous band around the configured p = 0.65. *)
let test_rent_exponent () =
  let cfg = small_cfg 3 in
  let nl = Rc_netlist.Generator.generate_hier cfg in
  let nc = cfg.Rc_netlist.Generator.n_cells in
  let n_blocks = nc / cfg.Rc_netlist.Generator.block_cells in
  let mean_external n_groups =
    (* group of movable cell c under the generator's even split *)
    let group c = if c >= nc then -1 else c * n_groups / nc in
    let total = ref 0 in
    Rc_netlist.Netlist.iter_nets nl (fun _ net ->
        let gd = group net.Rc_netlist.Netlist.driver in
        let touched = Hashtbl.create 4 in
        Array.iter
          (fun s ->
            let gs = group s in
            if gs <> gd && not (Hashtbl.mem touched (gd, gs)) then
              Hashtbl.add touched (gd, gs) ())
          net.Rc_netlist.Netlist.sinks;
        (* a net crossing k foreign groups contributes one terminal to
           the driver's group and one to each foreign group it enters *)
        let k = Hashtbl.length touched in
        if k > 0 then total := !total + k + (if gd >= 0 then 1 else 0));
    float_of_int !total /. float_of_int n_groups
  in
  let b = cfg.Rc_netlist.Generator.branching in
  let t1 = mean_external n_blocks in
  let t2 = mean_external (n_blocks / b) in
  let g1 = float_of_int (nc / n_blocks) and g2 = float_of_int (nc / (n_blocks / b)) in
  let p_hat = log (t2 /. t1) /. log (g2 /. g1) in
  if not (p_hat > 0.25 && p_hat < 0.95) then
    Alcotest.failf "Rent exponent estimate %.3f outside (0.25, 0.95)" p_hat

(* The multilevel V-cycle, forced onto an 8k circuit by lowering the
   threshold: placement must be legal, deterministic, and identical for
   any job count.  The positions and the HPWL's bits are pinned: the
   coarsening's merge and the spreading (split into pool subtrees at
   4096 cells or more, as the finer levels here are) must not move a
   bit. *)
let test_vcycle () =
  let nl = Rc_netlist.Generator.generate_hier (small_cfg 21) in
  let run jobs =
    with_jobs jobs (fun () ->
        Rc_place.Qplace.initial ~multilevel_threshold:1_000 nl ~chip)
  in
  let a = run 1 in
  let b = run 2 in
  Alcotest.(check bool) "hpwl positive" true (a.Rc_place.Qplace.hpwl > 0.0);
  Alcotest.(check bool) "every position inside the die" true
    (Array.for_all
       (fun (p : Rc_geom.Point.t) -> Rc_geom.Rect.contains chip p)
       a.Rc_place.Qplace.positions);
  Alcotest.(check bool) "bit-identical at jobs 1/2" true
    (a.Rc_place.Qplace.positions = b.Rc_place.Qplace.positions);
  Alcotest.(check string) "positions digest" "8568bdd819b40240221bdfb288caacdd"
    (Digest.to_hex (Digest.string (Marshal.to_string a.Rc_place.Qplace.positions [])));
  Alcotest.(check string) "hpwl bits" "415a4757f3c94841"
    (Printf.sprintf "%Lx" (Int64.bits_of_float a.Rc_place.Qplace.hpwl));
  (* the V-cycle must not be wildly worse than the flat schedule *)
  let flat = Rc_place.Qplace.initial nl ~chip in
  Alcotest.(check bool) "hpwl within 2x of flat schedule" true
    (a.Rc_place.Qplace.hpwl < 2.0 *. flat.Rc_place.Qplace.hpwl)

(* The sharded netflow assignment (engages above 4096 flip-flops):
   complete, capacity-respecting, and identical for any job count. *)
let test_sharded_assignment () =
  let tech = Rc_tech.Tech.default in
  let grid = 12 in
  let schip = chip_of_grid grid in
  let arr = Rc_rotary.Ring_array.create ~chip:schip ~grid () in
  let n = 4500 in
  let rng = Rc_util.Rng.create 99 in
  let ff_positions =
    Array.init n (fun _ ->
        Rc_geom.Point.make
          (Rc_util.Rng.float rng (Rc_geom.Rect.width schip))
          (Rc_util.Rng.float rng (Rc_geom.Rect.height schip)))
  in
  let targets = Array.init n (fun i -> float_of_int (i mod 7) *. 10.0) in
  let run jobs =
    with_jobs jobs (fun () ->
        Rc_assign.Assign.by_netflow tech arr ~ff_positions ~targets)
  in
  let a = run 1 in
  let b = run 2 in
  Alcotest.(check bool) "all flip-flops assigned" true
    (Array.for_all (fun r -> r >= 0) a.Rc_assign.Assign.ring_of_ff);
  let caps = Rc_rotary.Ring_array.default_capacities arr ~n_ffs:n ~slack:1.3 in
  let counts = Array.make (Rc_rotary.Ring_array.n_rings arr) 0 in
  Array.iter (fun r -> counts.(r) <- counts.(r) + 1) a.Rc_assign.Assign.ring_of_ff;
  Alcotest.(check bool) "ring capacities respected" true
    (Array.for_all2 (fun c cap -> c <= cap) counts caps);
  Alcotest.(check bool) "bit-identical at jobs 1/2" true
    (a.Rc_assign.Assign.ring_of_ff = b.Rc_assign.Assign.ring_of_ff
    && a.Rc_assign.Assign.total_cost = b.Rc_assign.Assign.total_cost)

(* The sharded path on a clustered instance: 4,500 flip-flops drawn
   from a Gaussian around the die centre of a 12x12 array (sigma = 12%
   of the die side), snapped to a 10 um grid.  That gives 9 shards,
   central ones holding more flip-flops than slots, so the per-shard
   flows see many exact cost ties and the repair pass runs.  The ring
   choice and the cost's bits are pinned: any change to the order in
   which ties are settled moves them. *)
let clustered_instance () =
  let grid = 12 in
  let schip = chip_of_grid grid in
  let arr = Rc_rotary.Ring_array.create ~chip:schip ~grid () in
  let n = 4500 in
  let rng = Rc_util.Rng.create 4242 in
  let side = Rc_geom.Rect.width schip in
  let c = Rc_geom.Rect.center schip in
  let draw mean hi =
    let v = Rc_util.Rng.gaussian rng ~mean ~sigma:(0.12 *. side) in
    Float.min hi (Float.max 0.0 (10.0 *. Float.round (v /. 10.0)))
  in
  let ff_positions =
    Array.init n (fun _ ->
        let x = draw c.Rc_geom.Point.x (Rc_geom.Rect.width schip) in
        let y = draw c.Rc_geom.Point.y (Rc_geom.Rect.height schip) in
        Rc_geom.Point.make x y)
  in
  let targets = Array.init n (fun i -> float_of_int (i mod 7) *. 10.0) in
  (arr, ff_positions, targets)

let test_sharded_pinned () =
  let tech = Rc_tech.Tech.default in
  let arr, ff_positions, targets = clustered_instance () in
  Rc_obs.Metrics.set_enabled true;
  let repairs = Rc_obs.Metrics.counter "assign.netflow.shard_repairs" in
  let r0 = Rc_obs.Metrics.count repairs in
  let a = Rc_assign.Assign.by_netflow tech arr ~ff_positions ~targets in
  let rings =
    String.concat "," (Array.to_list (Array.map string_of_int a.Rc_assign.Assign.ring_of_ff))
  in
  Alcotest.(check bool) "repairs ran" true (Rc_obs.Metrics.count repairs - r0 > 0);
  Alcotest.(check string) "ring_of_ff digest" "7645f480f2fd154904acbcfb5c88b60c" (Digest.to_hex (Digest.string rings));
  Alcotest.(check string) "total_cost bits" "415d9af7f48c0065"
    (Printf.sprintf "%Lx" (Int64.bits_of_float a.Rc_assign.Assign.total_cost))

(* The sharded path's replay: with a cache, a second call on identical
   inputs (every flip-flop a tap-cache hit, same capacities and
   candidate count) returns the first call's assignment without solving
   a shard, and that assignment equals a call without the cache.  A
   flip-flop dropped from the tap cache re-solves the shards, to the
   same result. *)
let test_sharded_replay () =
  let tech = Rc_tech.Tech.default in
  let arr, ff_positions, targets = clustered_instance () in
  Rc_obs.Metrics.set_enabled true;
  let solves = Rc_obs.Metrics.counter "assign.netflow.shard_solves" in
  let bits (a : Rc_assign.Assign.t) = Marshal.to_string a [] in
  let cache = Rc_assign.Assign.make_cache () in
  let call () = Rc_assign.Assign.by_netflow ~cache tech arr ~ff_positions ~targets in
  let s0 = Rc_obs.Metrics.count solves in
  let first = call () in
  let s1 = Rc_obs.Metrics.count solves in
  let second = call () in
  let s2 = Rc_obs.Metrics.count solves in
  let cold = Rc_assign.Assign.by_netflow tech arr ~ff_positions ~targets in
  Alcotest.(check bool) "first call solves shards" true (s1 - s0 > 0);
  Alcotest.(check int) "replay solves no shard" 0 (s2 - s1);
  Alcotest.(check bool) "replay = first call" true (bits second = bits first);
  Alcotest.(check bool) "replay = uncached call" true (bits second = bits cold);
  Alcotest.(check bool) "replay hands out its own arrays" true
    (second.Rc_assign.Assign.ring_of_ff != first.Rc_assign.Assign.ring_of_ff
    && second.Rc_assign.Assign.taps != first.Rc_assign.Assign.taps);
  Rc_assign.Assign.cache_invalidate cache ~ff:17;
  let s3 = Rc_obs.Metrics.count solves in
  let third = call () in
  Alcotest.(check bool) "an invalidated flip-flop re-solves the shards" true
    (Rc_obs.Metrics.count solves - s3 > 0);
  Alcotest.(check bool) "re-solved = first call" true (bits third = bits first)

(* Scaled-down full-flow smoke: a 10k-cell hierarchical circuit through
   the whole six-stage flow, bit-identical at jobs 1 and 2. *)
let scale10k =
  {
    Bench_suite.bname = "scale10k";
    ring_grid = 6;
    gen =
      Bench_suite.Hier
        (Rc_netlist.Generator.hier ~name:"scale10k" ~n_cells:10_000
           ~chip:(chip_of_grid 6) ~seed:777 ());
  }

let test_flow_smoke () =
  let run jobs =
    with_jobs jobs (fun () -> Flow.run (Flow.default_config scale10k))
  in
  let a = run 1 in
  let b = run 2 in
  Alcotest.(check bool) "flow converged to iterations" true
    (List.length a.Flow.history >= 1);
  Alcotest.(check (float 0.0))
    "tapping WL identical at jobs 1/2" a.Flow.final.Flow.tapping_wl
    b.Flow.final.Flow.tapping_wl;
  Alcotest.(check (float 0.0)) "AFD identical at jobs 1/2" a.Flow.final.Flow.afd
    b.Flow.final.Flow.afd;
  Alcotest.(check bool) "assignment complete" true
    (Array.for_all (fun r -> r >= 0) a.Flow.assignment.Rc_assign.Assign.ring_of_ff)

let () =
  Alcotest.run "rc_scale"
    [
      ( "generator",
        [
          Alcotest.test_case "determinism digest" `Quick test_determinism;
          Alcotest.test_case "structure guarantees" `Quick test_structure;
          Alcotest.test_case "acyclic logic" `Quick test_acyclic;
          Alcotest.test_case "Rent exponent sanity" `Quick test_rent_exponent;
        ] );
      ( "scaling paths",
        [
          Alcotest.test_case "multilevel V-cycle placement" `Quick test_vcycle;
          Alcotest.test_case "sharded netflow assignment" `Quick test_sharded_assignment;
          Alcotest.test_case "sharded assignment pinned (clustered)" `Quick test_sharded_pinned;
          Alcotest.test_case "sharded replay on unchanged inputs" `Quick test_sharded_replay;
        ] );
      ("flow", [ Alcotest.test_case "10k flow smoke jobs 1/2" `Slow test_flow_smoke ]);
    ]
