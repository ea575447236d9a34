(* Tests for Rc_place: HPWL arithmetic, quadratic placement quality and
   legality, incremental stability, and pseudo-net pull. *)

open Rc_netlist
open Netlist
open Rc_geom

let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1200.0 ~ymax:1200.0

let gen_cfg seed =
  {
    Rc_netlist.Generator.default_config with
    Rc_netlist.Generator.name = "place";
    n_logic = 120;
    n_ffs = 16;
    n_nets = 132;
    n_inputs = 6;
    n_outputs = 6;
    chip;
    seed;
  }

let check_float eps = Alcotest.(check (float eps))

let test_hpwl_single_net () =
  let kinds = [| Input_pad; Logic; Logic |] in
  let nets = [| { driver = 0; sinks = [| 1; 2 |] } |] in
  let nl = Netlist.make ~name:"h" ~kinds ~nets ~pad_positions:[ (0, Point.make 0.0 0.0) ] in
  let positions = [| Point.zero; Point.make 30.0 40.0; Point.make 10.0 100.0 |] in
  (* bbox (0..30, 0..100) -> hpwl 130 *)
  check_float 1e-9 "hpwl" 130.0 (Rc_place.Wirelength.net_hpwl nl positions 0);
  check_float 1e-9 "total" 130.0 (Rc_place.Wirelength.total nl positions);
  (* star: |(0,0)-(30,40)| + |(0,0)-(10,100)| = 70 + 110 *)
  check_float 1e-9 "star" 180.0 (Rc_place.Wirelength.net_star_length nl positions 0)

let test_initial_inside_chip () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 5) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let n = Netlist.n_cells nl in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then
      Alcotest.(check bool) "inside die" true (Rect.contains chip r.Rc_place.Qplace.positions.(c))
  done

let test_initial_no_overlap () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 6) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let seen = Hashtbl.create 64 in
  let n = Netlist.n_cells nl in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then begin
      let p = r.Rc_place.Qplace.positions.(c) in
      let key = (int_of_float p.Point.x, int_of_float p.Point.y) in
      Alcotest.(check bool) "distinct site" false (Hashtbl.mem seen key);
      Hashtbl.replace seen key ()
    end
  done

let test_initial_beats_random () =
  (* the placer should clearly beat a uniform random placement on HPWL *)
  let nl = Rc_netlist.Generator.generate (gen_cfg 7) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let rng = Rc_util.Rng.create 99 in
  let n = Netlist.n_cells nl in
  let random =
    Array.init n (fun c ->
        if Netlist.movable nl c then
          Point.make (Rc_util.Rng.float rng 1200.0) (Rc_util.Rng.float rng 1200.0)
        else Netlist.pad_position nl c)
  in
  let hr = Rc_place.Wirelength.total nl random in
  Alcotest.(check bool)
    (Printf.sprintf "placed %.0f < 0.8 * random %.0f" r.Rc_place.Qplace.hpwl hr)
    true
    (r.Rc_place.Qplace.hpwl < 0.8 *. hr)

let test_initial_deterministic () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 8) in
  let a = Rc_place.Qplace.initial nl ~chip and b = Rc_place.Qplace.initial nl ~chip in
  Alcotest.(check bool) "same result" true
    (a.Rc_place.Qplace.positions = b.Rc_place.Qplace.positions)

let test_incremental_stability () =
  (* with no pseudo-nets and strong stability, cells should barely move *)
  let nl = Rc_netlist.Generator.generate (gen_cfg 9) in
  let r0 = Rc_place.Qplace.initial nl ~chip in
  let r1 =
    Rc_place.Qplace.incremental ~stability:10.0 ~lap:(Rc_place.Qplace.laplacian nl ~chip) nl
      ~chip ~prev:r0.Rc_place.Qplace.positions ~pseudo:[]
  in
  let n = Netlist.n_cells nl in
  let moved = ref 0.0 and count = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then begin
      moved :=
        !moved +. Point.manhattan r0.Rc_place.Qplace.positions.(c) r1.Rc_place.Qplace.positions.(c);
      incr count
    end
  done;
  let avg = !moved /. float_of_int !count in
  Alcotest.(check bool) (Printf.sprintf "avg move %.1f um small" avg) true (avg < 40.0)

let test_pseudo_net_pull () =
  (* a strong pseudo-net on one flip-flop drags it toward the anchor *)
  let nl = Rc_netlist.Generator.generate (gen_cfg 10) in
  let r0 = Rc_place.Qplace.initial nl ~chip in
  let ff = (Netlist.flip_flops nl).(0) in
  let anchor = Point.make 1100.0 1100.0 in
  let before = Point.manhattan r0.Rc_place.Qplace.positions.(ff) anchor in
  let r1 =
    Rc_place.Qplace.incremental ~lap:(Rc_place.Qplace.laplacian nl ~chip) nl ~chip
      ~prev:r0.Rc_place.Qplace.positions
      ~pseudo:[ { Rc_place.Qplace.cell = ff; anchor; weight = 20.0 } ]
  in
  let after = Point.manhattan r1.Rc_place.Qplace.positions.(ff) anchor in
  Alcotest.(check bool)
    (Printf.sprintf "pulled toward anchor: %.0f -> %.0f" before after)
    true
    (after < 0.5 *. before)

let test_legalize_site_grid () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 11) in
  let r = Rc_place.Qplace.initial nl ~chip in
  (* all movable cells sit at site centers of the 10 um grid *)
  let n = Netlist.n_cells nl in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then begin
      let p = r.Rc_place.Qplace.positions.(c) in
      let fx = Float.rem (p.Point.x -. 5.0) 10.0 in
      let fy = Float.rem (p.Point.y -. 5.0) 10.0 in
      Alcotest.(check bool) "on site center" true
        (Float.abs fx < 1e-6 && Float.abs fy < 1e-6)
    end
  done

let prop_incremental_inside_chip =
  QCheck.Test.make ~name:"incremental placement stays inside the die" ~count:10
    QCheck.small_int (fun seed ->
      let nl = Rc_netlist.Generator.generate (gen_cfg (seed + 100)) in
      let r0 = Rc_place.Qplace.initial nl ~chip in
      let ffs = Netlist.flip_flops nl in
      let pseudo =
        Array.to_list
          (Array.map
             (fun f ->
               { Rc_place.Qplace.cell = f; anchor = Point.make 600.0 600.0; weight = 1.0 })
             ffs)
      in
      let r1 =
        Rc_place.Qplace.incremental ~lap:(Rc_place.Qplace.laplacian nl ~chip) nl ~chip
          ~prev:r0.Rc_place.Qplace.positions ~pseudo
      in
      let ok = ref true in
      Array.iteri
        (fun c p -> if Netlist.movable nl c && not (Rect.contains chip p) then ok := false)
        r1.Rc_place.Qplace.positions;
      !ok)

(* --- detailed placement --- *)

let test_detail_improves_hpwl () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 20) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let refined, st = Rc_place.Detail.refine nl ~chip ~site:10.0 r.Rc_place.Qplace.positions in
  Alcotest.(check bool)
    (Printf.sprintf "hpwl %.0f <= %.0f" st.Rc_place.Detail.final_hpwl st.Rc_place.Detail.initial_hpwl)
    true
    (st.Rc_place.Detail.final_hpwl <= st.Rc_place.Detail.initial_hpwl);
  Alcotest.(check (float 1.0)) "final matches recomputed"
    (Rc_place.Wirelength.total nl refined) st.Rc_place.Detail.final_hpwl

let test_detail_preserves_legality () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 21) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let refined, _ = Rc_place.Detail.refine nl ~chip ~site:10.0 r.Rc_place.Qplace.positions in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun c p ->
      if Netlist.movable nl c then begin
        Alcotest.(check bool) "inside chip" true (Rect.contains chip p);
        let key = (int_of_float p.Point.x, int_of_float p.Point.y) in
        Alcotest.(check bool) "distinct sites" false (Hashtbl.mem seen key);
        Hashtbl.replace seen key ()
      end)
    refined

let test_detail_frozen_cells_stay () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 22) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let is_ff = Netlist.is_ff nl in
  let refined, _ =
    Rc_place.Detail.refine ~frozen:is_ff nl ~chip ~site:10.0 r.Rc_place.Qplace.positions
  in
  Array.iter
    (fun f ->
      Alcotest.(check bool) "frozen ff unmoved" true
        (Point.equal refined.(f) r.Rc_place.Qplace.positions.(f)))
    (Netlist.flip_flops nl)

let test_relocate_moves_toward_anchor () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 23) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let ff = (Netlist.flip_flops nl).(0) in
  let anchor = Point.make 1100.0 100.0 in
  let before = Point.manhattan r.Rc_place.Qplace.positions.(ff) anchor in
  (* weight 3 -> moves 75% of the way *)
  let moved =
    Rc_place.Qplace.relocate nl ~chip ~site:10.0 ~prev:r.Rc_place.Qplace.positions
      ~pseudo:[ { Rc_place.Qplace.cell = ff; anchor; weight = 3.0 } ]
  in
  let after = Point.manhattan moved.(ff) anchor in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f -> %.0f (75%% step)" before after)
    true
    (after < (0.35 *. before) +. 21.0);
  (* everything else untouched *)
  let others_same = ref true in
  Array.iteri
    (fun c p ->
      if c <> ff && Netlist.movable nl c && not (Point.equal p r.Rc_place.Qplace.positions.(c))
      then others_same := false)
    moved;
  Alcotest.(check bool) "others untouched" true !others_same

let test_relocate_keeps_legality () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 24) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let pseudo =
    Array.to_list
      (Array.map
         (fun f -> { Rc_place.Qplace.cell = f; anchor = Point.make 600.0 600.0; weight = 50.0 })
         (Netlist.flip_flops nl))
  in
  let moved =
    Rc_place.Qplace.relocate nl ~chip ~site:10.0 ~prev:r.Rc_place.Qplace.positions ~pseudo
  in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun c p ->
      if Netlist.movable nl c then begin
        let key = (int_of_float p.Point.x, int_of_float p.Point.y) in
        Alcotest.(check bool) "distinct sites after relocation" false (Hashtbl.mem seen key);
        Hashtbl.replace seen key ()
      end)
    moved

(* --- Steiner wirelength --- *)

let test_steiner_trivial () =
  check_float 1e-9 "empty" 0.0 (Rc_place.Steiner.length []);
  check_float 1e-9 "single" 0.0 (Rc_place.Steiner.length [ Point.make 3.0 4.0 ]);
  check_float 1e-9 "pair = manhattan" 7.0
    (Rc_place.Steiner.length [ Point.make 0.0 0.0; Point.make 3.0 4.0 ])

let test_steiner_plus_shape () =
  (* four arms of a plus: the Steiner point at the center turns an MST of
     6 into a tree of 4 *)
  let pts = [ Point.make 1.0 0.0; Point.make 0.0 1.0; Point.make 2.0 1.0; Point.make 1.0 2.0 ] in
  check_float 1e-9 "mst" 6.0 (Rc_place.Steiner.mst_length pts);
  check_float 1e-9 "rsmt" 4.0 (Rc_place.Steiner.length pts)

let test_steiner_three_pins () =
  (* L-shaped trio: Steiner point at the median *)
  let pts = [ Point.make 0.0 0.0; Point.make 4.0 0.0; Point.make 2.0 3.0 ] in
  (* median point (2,0): total = 2 + 2 + 3 = 7 *)
  check_float 1e-9 "median tree" 7.0 (Rc_place.Steiner.length pts)

let test_steiner_tree_edges () =
  let pts = [ Point.make 1.0 0.0; Point.make 0.0 1.0; Point.make 2.0 1.0; Point.make 1.0 2.0 ] in
  let edges = Rc_place.Steiner.tree pts in
  (* 4 pins + 1 steiner point -> 4 edges *)
  Alcotest.(check int) "edges" 4 (List.length edges);
  let len = List.fold_left (fun acc (a, b) -> acc +. Point.manhattan a b) 0.0 edges in
  check_float 1e-9 "edges sum to length" 4.0 len

let test_steiner_net_totals () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 30) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let hp = Rc_place.Wirelength.total nl r.Rc_place.Qplace.positions in
  let st = Rc_place.Steiner.total nl r.Rc_place.Qplace.positions in
  let star = ref 0.0 in
  Netlist.iter_nets nl (fun ni _ ->
      star := !star +. Rc_place.Wirelength.net_star_length nl r.Rc_place.Qplace.positions ni);
  let star = !star in
  Alcotest.(check bool)
    (Printf.sprintf "hpwl %.0f <= steiner %.0f <= star %.0f" hp st star)
    true
    (hp <= st +. 1e-6 && st <= star +. 1e-6)

let prop_steiner_bounds =
  QCheck.Test.make ~name:"hpwl <= rsmt <= mst <= 1.5 rsmt" ~count:150
    QCheck.(list_of_size Gen.(int_range 2 7)
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun coords ->
      let pts = List.map (fun (x, y) -> Point.make x y) coords in
      let distinct =
        List.fold_left (fun acc p -> if List.exists (Point.equal p) acc then acc else p :: acc) [] pts
      in
      if List.length distinct < 2 then true
      else begin
        let hp = Reference_kernels.half_perimeter (Reference_kernels.rect_of_points distinct) in
        let st = Rc_place.Steiner.length distinct in
        let mst = Rc_place.Steiner.mst_length distinct in
        hp <= st +. 1e-6 && st <= mst +. 1e-6 && mst <= (1.5 *. st) +. 1e-6
      end)

(* ---- flat kernels vs the reference implementations ------------------ *)

module Rng = Rc_util.Rng
module Csr = Rc_sparse.Csr

let bits = Array.map Int64.bits_of_float

let csr_rows a =
  List.init (Csr.rows a) (fun i ->
      let row = ref [] in
      Csr.iter_row a i (fun j v -> row := (j, Int64.bits_of_float v) :: !row);
      !row)

(* A random netlist with pad connections, pad-to-pad nets and repeated
   sinks.  A net whose sink is its own driver cannot be built
   (Netlist.make rejects self-loops), so repeated sinks are what give
   the assembly its duplicate entries. *)
let random_netlist rng =
  let n = 4 + Rng.int rng 30 in
  let kinds =
    Array.init n (fun _ ->
        match Rng.int rng 6 with 0 -> Input_pad | 1 -> Output_pad | 2 -> Flipflop | _ -> Logic)
  in
  let nets = ref [] in
  for d = 0 to n - 1 do
    let sinks =
      Array.of_list (List.filter (fun c -> c <> d && kinds.(c) <> Input_pad) (List.init n Fun.id))
    in
    if kinds.(d) <> Output_pad && Array.length sinks > 0 && Rng.int rng 4 > 0 then
      let sinks = Array.init (1 + Rng.int rng 4) (fun _ -> Rng.choose rng sinks) in
      nets := { driver = d; sinks } :: !nets
  done;
  let pad_positions =
    List.filter_map
      (fun c ->
        match kinds.(c) with
        | Input_pad | Output_pad ->
            Some (c, Point.make (Rng.float_in rng 0.0 1200.0) (Rng.float_in rng 0.0 1200.0))
        | Logic | Flipflop -> None)
      (List.init n Fun.id)
  in
  Netlist.make ~name:"random" ~kinds ~nets:(Array.of_list (List.rev !nets)) ~pad_positions

(* springs over [m] movable rows that repeat rows and include zero weights *)
let random_springs rng m =
  let k = if m = 0 then 0 else Rng.int rng ((2 * m) + 2) in
  {
    Rc_place.Qplace.rows = Array.init k (fun _ -> Rng.int rng m);
    px = Array.init k (fun _ -> Rng.float_in rng 0.0 1200.0);
    py = Array.init k (fun _ -> Rng.float_in rng 0.0 1200.0);
    w = Array.init k (fun _ -> if Rng.int rng 4 = 0 then 0.0 else Rng.float_in rng 0.0 2.0);
  }

let prop_system_matches_reference =
  QCheck.Test.make ~name:"assemble-once system is bit-identical to per-round of_entries"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 7919) + 3) in
      let nl = random_netlist rng in
      let movable, _ = Reference_kernels.movable_index nl in
      let m = Array.length movable in
      let segments = List.init (Rng.int rng 3) (fun _ -> random_springs rng m) in
      let sys = Rc_place.Qplace.system (Rc_place.Qplace.laplacian nl ~chip) segments in
      let extra_springs =
        List.concat_map
          (fun (sp : Rc_place.Qplace.springs) ->
            List.init (Array.length sp.rows) (fun k ->
                (movable.(sp.rows.(k)), Point.make sp.px.(k) sp.py.(k), sp.w.(k))))
          segments
      in
      let matrix, rhs_x, rhs_y = Reference_kernels.build_system nl ~chip ~extra_springs in
      Csr.rows sys.matrix = Csr.rows matrix
      && csr_rows sys.matrix = csr_rows matrix
      && bits sys.rhs_x = bits rhs_x
      && bits sys.rhs_y = bits rhs_y)

(* random netlists and positions, with signed zeros, infinities and
   nans among the coordinates: every net's HPWL and the total equal the
   point-list fold bit for bit *)
let prop_hpwl_matches_reference =
  QCheck.Test.make ~name:"net HPWL fold is bit-identical to the point-list bounding box"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 613) + 11) in
      let nl = random_netlist rng in
      let special = [| 0.0; -0.0; infinity; neg_infinity; nan |] in
      let coord () =
        if seed mod 2 = 1 && Rng.int rng 8 = 0 then Rng.choose rng special
        else Rng.float_in rng 0.0 1200.0
      in
      let positions =
        Array.init (Netlist.n_cells nl) (fun _ ->
            let x = coord () in
            Point.make x (coord ()))
      in
      let hpwl = Array.init (Netlist.n_nets nl) (Rc_place.Wirelength.net_hpwl nl positions) in
      let want = Array.init (Netlist.n_nets nl) (Reference_kernels.net_hpwl nl positions) in
      let total = Array.fold_left ( +. ) 0.0 want in
      bits hpwl = bits want
      && Int64.bits_of_float (Rc_place.Wirelength.total nl positions) = Int64.bits_of_float total)

let prop_spreading_matches_reference =
  QCheck.Test.make ~name:"typed spreading sort is bit-identical to polymorphic compare"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 31) + 5) in
      let m = Rng.int rng 90 in
      (* distinct keys (the presorted path), rounded ones (equal keys:
         the heap-sort fallback) or rounded ones mixed with specials *)
      let special = [| 0.0; -0.0; 7.0; 7.0; nan; infinity; neg_infinity |] in
      let coord () =
        match seed mod 3 with
        | 0 -> Rng.float_in rng 0.0 40.0
        | 1 -> Float.round (Rng.float_in rng 0.0 40.0)
        | _ ->
            if Rng.int rng 3 = 0 then Rng.choose rng special
            else Float.round (Rng.float_in rng 0.0 40.0)
      in
      let xs = Array.init m (fun _ -> coord ()) and ys = Array.init m (fun _ -> coord ()) in
      let die =
        Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:(Rng.float_in rng 100.0 900.0)
          ~ymax:(Rng.float_in rng 100.0 900.0)
      in
      let r_new = Rng.create seed and r_ref = Rng.create seed in
      let t_new = Rc_place.Qplace.spreading_targets r_new die m xs ys in
      let t_ref = Reference_kernels.spreading_targets r_ref die m xs ys in
      let xy t =
        bits (Array.append (Array.map (fun p -> p.Point.x) t) (Array.map (fun p -> p.Point.y) t))
      in
      xy t_new = xy t_ref && Rng.bits64 r_new = Rng.bits64 r_ref)

(* Above the cutoff the top levels split in the calling domain and the
   subtrees run on the pool, each drawing its jitter from a generator
   skipped ahead to its first slot.  At jobs 1, 2 and 4, with the full
   participant count forced as in test_par, called directly (a pool
   region) and inside Pool.region (scope sub-jobs), the targets and the
   generator's next draw must equal the sequential reference. *)
let prop_parallel_spreading_matches_reference =
  QCheck.Test.make ~name:"parallel spreading above the cutoff is bit-identical (jobs 1/2/4)"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 131) + 17) in
      let m = 4096 + Rng.int rng 6000 in
      let special = [| 0.0; -0.0; 7.0; 7.0; nan; infinity; neg_infinity |] in
      let coord () =
        match seed mod 3 with
        | 0 -> Rng.float_in rng 0.0 1000.0
        | 1 -> Float.round (Rng.float_in rng 0.0 1000.0)
        | _ ->
            if Rng.int rng 50 = 0 then Rng.choose rng special
            else Float.round (Rng.float_in rng 0.0 1000.0)
      in
      let xs = Array.init m (fun _ -> coord ()) and ys = Array.init m (fun _ -> coord ()) in
      let die =
        Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:(Rng.float_in rng 100.0 900.0)
          ~ymax:(Rng.float_in rng 100.0 900.0)
      in
      let xy t =
        bits (Array.append (Array.map (fun p -> p.Point.x) t) (Array.map (fun p -> p.Point.y) t))
      in
      let r_ref = Rng.create seed in
      let want = xy (Reference_kernels.spreading_targets r_ref die m xs ys) in
      let want_next = Rng.bits64 r_ref in
      let run ~in_region =
        let r = Rng.create seed in
        let spread () = Rc_place.Qplace.spreading_targets r die m xs ys in
        let t = if in_region then Rc_par.Pool.region spread else spread () in
        xy t = want && Rng.bits64 r = want_next
      in
      let jobs = Rc_par.Pool.jobs ()
      and uncapped = Option.value (Sys.getenv_opt "ROTARY_POOL_UNCAPPED") ~default:"" in
      Unix.putenv "ROTARY_POOL_UNCAPPED" "1";
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "ROTARY_POOL_UNCAPPED" uncapped;
          Rc_par.Pool.set_jobs jobs)
        (fun () ->
          List.for_all
            (fun jobs ->
              Rc_par.Pool.set_jobs jobs;
              run ~in_region:false && run ~in_region:true)
            [ 1; 2; 4 ]))

let () =
  Alcotest.run "rc_place"
    [
      ("wirelength", [ Alcotest.test_case "hpwl and star" `Quick test_hpwl_single_net ]);
      ( "initial",
        [
          Alcotest.test_case "inside chip" `Quick test_initial_inside_chip;
          Alcotest.test_case "no overlap after legalization" `Quick test_initial_no_overlap;
          Alcotest.test_case "beats random placement" `Quick test_initial_beats_random;
          Alcotest.test_case "deterministic" `Quick test_initial_deterministic;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "stability" `Quick test_incremental_stability;
          Alcotest.test_case "pseudo-net pull" `Quick test_pseudo_net_pull;
          QCheck_alcotest.to_alcotest prop_incremental_inside_chip;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest prop_system_matches_reference;
          QCheck_alcotest.to_alcotest prop_hpwl_matches_reference;
          QCheck_alcotest.to_alcotest prop_spreading_matches_reference;
          QCheck_alcotest.to_alcotest prop_parallel_spreading_matches_reference;
        ] );
      ( "legalize",
        [
          Alcotest.test_case "site grid" `Quick test_legalize_site_grid;
        ] );
      ( "detail",
        [
          Alcotest.test_case "improves hpwl" `Quick test_detail_improves_hpwl;
          Alcotest.test_case "preserves legality" `Quick test_detail_preserves_legality;
          Alcotest.test_case "frozen cells stay" `Quick test_detail_frozen_cells_stay;
        ] );
      ( "relocate",
        [
          Alcotest.test_case "moves toward anchor" `Quick test_relocate_moves_toward_anchor;
          Alcotest.test_case "keeps legality" `Quick test_relocate_keeps_legality;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "trivial cases" `Quick test_steiner_trivial;
          Alcotest.test_case "plus shape gains" `Quick test_steiner_plus_shape;
          Alcotest.test_case "three pins exact" `Quick test_steiner_three_pins;
          Alcotest.test_case "tree edges" `Quick test_steiner_tree_edges;
          Alcotest.test_case "net totals ordered" `Quick test_steiner_net_totals;
          QCheck_alcotest.to_alcotest prop_steiner_bounds;
        ] );
    ]
