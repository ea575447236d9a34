(* Tests for Rc_lp: model building and the two-phase bounded-variable
   simplex (optimality, infeasibility, unboundedness, free variables,
   equality rows, duals, randomized feasibility/optimality checks), and
   the oracles that hold the engine to the dense-bump reference engine
   ([Reference_kernels.Simplex_ref]) pivot for pivot. *)

open Rc_lp

let check_float = Alcotest.(check (float 1e-5))

let solve p = Simplex.solve p

let test_problem_builder () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~hi:10.0 ~obj:1.0 p in
  let y = Problem.add_var ~lo:0.0 ~obj:2.0 p in
  let r = Problem.add_row p [ (x, 1.0); (y, 1.0); (x, 1.0) ] Problem.Le 8.0 in
  Alcotest.(check int) "vars" 2 (Problem.n_vars p);
  Alcotest.(check int) "rows" 1 (Problem.n_rows p);
  check_float "obj" 2.0 (Problem.var_obj p y);
  Problem.iter_rows p (fun i coeffs sense rhs ->
      Alcotest.(check int) "row index" r i;
      Alcotest.(check bool) "duplicate merged" true (coeffs = [ (x, 2.0); (y, 1.0) ]);
      Alcotest.(check bool) "sense" true (sense = Problem.Le);
      check_float "rhs" 8.0 rhs);
  Alcotest.check_raises "bad bounds" (Invalid_argument "Problem.add_var: lo > hi") (fun () ->
      ignore (Problem.add_var ~lo:1.0 ~hi:0.0 p))

(* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
   Classic: optimum x=2, y=6, obj=36. *)
let test_textbook_lp () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~obj:(-3.0) p in
  let y = Problem.add_var ~lo:0.0 ~obj:(-5.0) p in
  ignore (Problem.add_row p [ (x, 1.0) ] Problem.Le 4.0);
  ignore (Problem.add_row p [ (y, 2.0) ] Problem.Le 12.0);
  ignore (Problem.add_row p [ (x, 3.0); (y, 2.0) ] Problem.Le 18.0);
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "obj" (-36.0) s.Simplex.objective;
  check_float "x" 2.0 s.Simplex.x.(x);
  check_float "y" 6.0 s.Simplex.x.(y)

let test_equality_rows () =
  (* min x + y st x + y = 5, x - y = 1 -> x=3 y=2 obj 5 *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~obj:1.0 p in
  let y = Problem.add_var ~lo:0.0 ~obj:1.0 p in
  ignore (Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Eq 5.0);
  ignore (Problem.add_row p [ (x, 1.0); (y, -1.0) ] Problem.Eq 1.0);
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "x" 3.0 s.Simplex.x.(x);
  check_float "y" 2.0 s.Simplex.x.(y)

let test_ge_rows () =
  (* min 2x + 3y st x + y >= 4, x >= 1, y >= 0 -> x=4,y=0 obj 8 *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:1.0 ~obj:2.0 p in
  let y = Problem.add_var ~lo:0.0 ~obj:3.0 p in
  ignore (Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Ge 4.0);
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "obj" 8.0 s.Simplex.objective;
  check_float "x" 4.0 s.Simplex.x.(x)

let test_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~hi:1.0 ~obj:1.0 p in
  ignore (Problem.add_row p [ (x, 1.0) ] Problem.Ge 2.0);
  let s = solve p in
  Alcotest.(check bool) "infeasible" true (s.Simplex.status = Simplex.Infeasible)

let test_infeasible_equalities () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~obj:0.0 p in
  let y = Problem.add_var ~lo:0.0 p in
  ignore (Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Eq 1.0);
  ignore (Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Eq 2.0);
  let s = solve p in
  Alcotest.(check bool) "infeasible" true (s.Simplex.status = Simplex.Infeasible)

let test_unbounded () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~obj:(-1.0) p in
  let y = Problem.add_var ~lo:0.0 p in
  ignore (Problem.add_row p [ (x, 1.0); (y, -1.0) ] Problem.Le 1.0);
  let s = solve p in
  Alcotest.(check bool) "unbounded" true (s.Simplex.status = Simplex.Unbounded)

let test_free_variables_difference_constraints () =
  (* Skew-scheduling shape: free t0, t1, t2.
     min t2 - t0 st t1 - t0 <= 3, t2 - t1 <= 4, t2 - t0 >= 5. *)
  let p = Problem.create () in
  let t0 = Problem.add_var ~obj:(-1.0) p in
  let t1 = Problem.add_var p in
  let t2 = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p [ (t1, 1.0); (t0, -1.0) ] Problem.Le 3.0);
  ignore (Problem.add_row p [ (t2, 1.0); (t1, -1.0) ] Problem.Le 4.0);
  ignore (Problem.add_row p [ (t2, 1.0); (t0, -1.0) ] Problem.Ge 5.0);
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "minimized spread" 5.0 s.Simplex.objective

let test_bounded_above_only () =
  (* min -x st x <= 7 (no lower bound): optimum x = 7 *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:7.0 ~obj:(-1.0) p in
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "x at upper" 7.0 s.Simplex.x.(x)

let test_bound_flip_path () =
  (* All variables boxed; optimum at a mix of bounds. min -x - 2y - 3z
     st x + y + z <= 1.5, each in [0,1]. Optimum z=1, y=0.5, x=0. *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~hi:1.0 ~obj:(-1.0) p in
  let y = Problem.add_var ~lo:0.0 ~hi:1.0 ~obj:(-2.0) p in
  let z = Problem.add_var ~lo:0.0 ~hi:1.0 ~obj:(-3.0) p in
  ignore (Problem.add_row p [ (x, 1.0); (y, 1.0); (z, 1.0) ] Problem.Le 1.5);
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "obj" (-4.0) s.Simplex.objective;
  check_float "z" 1.0 s.Simplex.x.(z);
  check_float "y" 0.5 s.Simplex.x.(y);
  check_float "x" 0.0 s.Simplex.x.(x)

let test_duals_of_textbook () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~obj:(-3.0) p in
  let y = Problem.add_var ~lo:0.0 ~obj:(-5.0) p in
  ignore (Problem.add_row p [ (x, 1.0) ] Problem.Le 4.0);
  ignore (Problem.add_row p [ (y, 2.0) ] Problem.Le 12.0);
  ignore (Problem.add_row p [ (x, 3.0); (y, 2.0) ] Problem.Le 18.0);
  let s = solve p in
  (* dual objective = primal objective at optimum *)
  let dual_obj =
    (4.0 *. s.Simplex.duals.(0)) +. (12.0 *. s.Simplex.duals.(1)) +. (18.0 *. s.Simplex.duals.(2))
  in
  check_float "strong duality" s.Simplex.objective dual_obj

let test_degenerate () =
  (* Multiple constraints active at optimum. *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~obj:(-1.0) p in
  let y = Problem.add_var ~lo:0.0 ~obj:(-1.0) p in
  ignore (Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Le 1.0);
  ignore (Problem.add_row p [ (x, 1.0) ] Problem.Le 1.0);
  ignore (Problem.add_row p [ (y, 1.0) ] Problem.Le 1.0);
  ignore (Problem.add_row p [ (x, 2.0); (y, 1.0) ] Problem.Le 2.0);
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "obj" (-1.0) s.Simplex.objective

let test_min_max_shape () =
  (* The assignment LP relaxation shape: min C st per-ring load <= C.
     2 flip-flops, 2 rings, loads: ff0: r0=1, r1=3; ff1: r0=2, r1=1.
     Fractional optimum C: x00=1, x11=1 gives C=2; LP can split:
     putting both wholly gives max(1,1)=... x00=1 (load r0 = 1),
     x11=1 (load r1 = 1) -> C=1? ff0 on r0 load 1, ff1 on r1 load 1;
     C = 1 achievable integrally. *)
  let p = Problem.create () in
  let c = Problem.add_var ~lo:0.0 ~obj:1.0 p in
  let x00 = Problem.add_var ~lo:0.0 ~hi:1.0 p in
  let x01 = Problem.add_var ~lo:0.0 ~hi:1.0 p in
  let x10 = Problem.add_var ~lo:0.0 ~hi:1.0 p in
  let x11 = Problem.add_var ~lo:0.0 ~hi:1.0 p in
  ignore (Problem.add_row p [ (x00, 1.0); (x01, 1.0) ] Problem.Eq 1.0);
  ignore (Problem.add_row p [ (x10, 1.0); (x11, 1.0) ] Problem.Eq 1.0);
  ignore (Problem.add_row p [ (x00, 1.0); (x10, 2.0); (c, -1.0) ] Problem.Le 0.0);
  ignore (Problem.add_row p [ (x01, 3.0); (x11, 1.0); (c, -1.0) ] Problem.Le 0.0);
  let s = solve p in
  Alcotest.(check bool) "optimal" true (s.Simplex.status = Simplex.Optimal);
  check_float "min-max load" 1.0 s.Simplex.objective

(* Randomized: build LPs from a known feasible point; check the simplex
   returns a feasible solution with objective <= the known point's. *)
let prop_random_feasible_lps =
  QCheck.Test.make ~name:"simplex beats a known feasible point" ~count:60
    QCheck.(triple small_int (int_range 1 6) (int_range 1 8))
    (fun (seed, nv, nr) ->
      let rng = Rc_util.Rng.create ((seed * 7919) + 13) in
      let p = Problem.create () in
      let xstar = Array.init nv (fun _ -> Rc_util.Rng.float_in rng (-5.0) 5.0) in
      let vars =
        Array.init nv (fun j ->
            Problem.add_var ~lo:(xstar.(j) -. 10.0) ~hi:(xstar.(j) +. 10.0)
              ~obj:(Rc_util.Rng.float_in rng (-1.0) 1.0)
              p)
      in
      for _ = 1 to nr do
        let coeffs =
          Array.to_list (Array.map (fun v -> (v, Rc_util.Rng.float_in rng (-2.0) 2.0)) vars)
        in
        let lhs = List.fold_left (fun acc (j, c) -> acc +. (c *. xstar.(j))) 0.0 coeffs in
        let slackness = Rc_util.Rng.float_in rng 0.0 3.0 in
        ignore (Problem.add_row p coeffs Problem.Le (lhs +. slackness))
      done;
      let s = solve p in
      if s.Simplex.status <> Simplex.Optimal then false
      else begin
        (* check feasibility of returned x *)
        let feasible = ref true in
        Problem.iter_rows p (fun _ coeffs sense rhs ->
            let lhs =
              List.fold_left (fun acc (j, c) -> acc +. (c *. s.Simplex.x.(j))) 0.0 coeffs
            in
            match sense with
            | Problem.Le -> if lhs > rhs +. 1e-5 then feasible := false
            | Problem.Ge -> if lhs < rhs -. 1e-5 then feasible := false
            | Problem.Eq -> if Float.abs (lhs -. rhs) > 1e-5 then feasible := false);
        Array.iteri
          (fun j v ->
            if v < Problem.var_lo p j -. 1e-5 || v > Problem.var_hi p j +. 1e-5 then
              feasible := false)
          s.Simplex.x;
        let star_obj =
          Array.to_list vars
          |> List.fold_left (fun acc v -> acc +. (Problem.var_obj p v *. xstar.(v))) 0.0
        in
        !feasible && s.Simplex.objective <= star_obj +. 1e-5
      end)

(* ---- oracles: the engine against the dense-bump reference ------------- *)

module Simplex_ref = Reference_kernels.Simplex_ref

(* IEEE [=] entry by entry, so -0 equals +0 and nothing else differs *)
let same_floats a b = Array.length a = Array.length b && Array.for_all2 (fun u v -> u = v) a b

(* the same status after the same number of pivots, the same point,
   objective and duals *)
let same_solution (s : Simplex.solution) (r : Simplex.solution) =
  s.Simplex.status = r.Simplex.status
  && s.Simplex.iterations = r.Simplex.iterations
  && same_floats s.Simplex.x r.Simplex.x
  && s.Simplex.objective = r.Simplex.objective
  && same_floats s.Simplex.duals r.Simplex.duals

let check_same name p =
  let s = Simplex.solve p and r = Simplex_ref.solve p in
  if not (same_solution s r) then
    Alcotest.failf "%s: engine and reference differ (iterations %d vs %d, objective %h vs %h)"
      name s.Simplex.iterations r.Simplex.iterations s.Simplex.objective r.Simplex.objective

(* A random LP of [nv] variables and [nr] rows: ≤, ≥ and = rows; free,
   boxed, fixed and one-sided variables; coefficients drawn from small
   integers and halves with exact zeros, so vertices are degenerate and
   ratio ties frequent.  Half the rows are built around a known point,
   the rest take an arbitrary right-hand side, so a draw may be
   optimal, infeasible or unbounded. *)
let random_lp seed nv nr =
  let rng = Rc_util.Rng.create ((seed * 104729) + 7) in
  let pick a = a.(Rc_util.Rng.int rng (Array.length a)) in
  let small () = pick [| 0.0; 0.0; 1.0; -1.0; 2.0; -2.0; 0.5; -0.5; 3.0 |] in
  let p = Problem.create () in
  let xstar = Array.init nv (fun _ -> float_of_int (Rc_util.Rng.int rng 7 - 3)) in
  let vars =
    Array.init nv (fun j ->
        let obj = if Reference_kernels.coin rng then small () else Rc_util.Rng.float_in rng (-2.0) 2.0 in
        let x = xstar.(j) in
        match Rc_util.Rng.int rng 5 with
        | 0 -> Problem.add_var ~obj p
        | 1 -> Problem.add_var ~lo:(x -. 1.0) ~obj p
        | 2 -> Problem.add_var ~hi:(x +. 2.0) ~obj p
        | 3 -> Problem.add_var ~lo:(x -. 1.0) ~hi:(x +. float_of_int (Rc_util.Rng.int rng 3)) ~obj p
        | _ -> Problem.add_var ~lo:0.0 ~hi:1.0 ~obj p)
  in
  for _ = 1 to nr do
    let coeffs = Array.to_list (Array.map (fun v -> (v, small ())) vars) in
    let lhs = List.fold_left (fun acc (j, c) -> acc +. (c *. xstar.(j))) 0.0 coeffs in
    let sense = pick [| Problem.Le; Problem.Ge; Problem.Eq |] in
    let rhs =
      if Reference_kernels.coin rng then
        match sense with
        | Problem.Le -> lhs +. float_of_int (Rc_util.Rng.int rng 3)
        | Problem.Ge -> lhs -. float_of_int (Rc_util.Rng.int rng 3)
        | Problem.Eq -> lhs
      else float_of_int (Rc_util.Rng.int rng 11 - 5)
    in
    ignore (Problem.add_row p coeffs sense rhs)
  done;
  p

let prop_random_lps_match_reference =
  QCheck.Test.make ~name:"random LPs: same pivots, x, objective and duals as the reference"
    ~count:400
    QCheck.(triple small_int (int_range 1 9) (int_range 1 9))
    (fun (seed, nv, nr) ->
      let p = random_lp seed nv nr in
      same_solution (Simplex.solve p) (Simplex_ref.solve p))

(* the oracle's random draws reach every terminal status a pivot rule
   can take a wrong turn to *)
let test_random_lps_cover_statuses () =
  let seen = Hashtbl.create 4 in
  for seed = 0 to 299 do
    let p = random_lp seed (1 + (seed mod 9)) (1 + (seed / 9 mod 9)) in
    Hashtbl.replace seen (Simplex_ref.solve p).Simplex.status ()
  done;
  List.iter
    (fun (name, st) -> Alcotest.(check bool) name true (Hashtbl.mem seen st))
    [ ("optimal", Simplex.Optimal); ("infeasible", Simplex.Infeasible);
      ("unbounded", Simplex.Unbounded) ]

(* The Eq. 3 min-max assignment LP of [Assign.by_ilp]: a cap variable,
   one boxed variable per (item, candidate bin), one = row per item and
   one ≤ row per used bin.  Loads are multiples of 0.25, so bins tie. *)
let minmax_lp seed ~items ~bins ~candidates =
  let rng = Rc_util.Rng.create ((seed * 7919) + 1) in
  let p = Problem.create () in
  let cap = Problem.add_var ~lo:0.0 ~obj:1.0 p in
  let per_bin = Array.make bins [] in
  for _ = 1 to items do
    let order = Array.init bins Fun.id in
    for k = bins - 1 downto 1 do
      let r = Rc_util.Rng.int rng (k + 1) in
      let t = order.(k) in
      order.(k) <- order.(r);
      order.(r) <- t
    done;
    let row =
      List.init (min candidates bins) (fun q ->
          let v = Problem.add_var ~lo:0.0 ~hi:1.0 p in
          let load = 0.25 *. float_of_int (4 + Rc_util.Rng.int rng 200) in
          per_bin.(order.(q)) <- (v, load) :: per_bin.(order.(q));
          (v, 1.0))
    in
    ignore (Problem.add_row p row Problem.Eq 1.0)
  done;
  Array.iter
    (fun entries ->
      if entries <> [] then ignore (Problem.add_row p ((cap, -1.0) :: entries) Problem.Le 0.0))
    per_bin;
  p

let prop_minmax_lps_match_reference =
  QCheck.Test.make ~name:"min-max assignment LPs up to 135 x 6 over 16 bins match the reference"
    ~count:12
    QCheck.(triple small_int (int_range 2 135) (int_range 2 16))
    (fun (seed, items, bins) ->
      let p = minmax_lp seed ~items ~bins ~candidates:6 in
      same_solution (Simplex.solve p) (Simplex_ref.solve p))

let test_minmax_s9234_shape () =
  for seed = 0 to 1 do
    check_same
      (Printf.sprintf "135 x 6 over 16, seed %d" seed)
      (minmax_lp seed ~items:135 ~bins:16 ~candidates:6)
  done

(* tiny's stage-2 skew problem in the two LP forms of Sec. VII, built as
   [Max_slack.solve_lp] and [Cost_driven.solve_weighted_lp] build them;
   the library's answers are read off the engine's x, so each also
   equals the reference's bit for bit *)
let tiny_stage2 = lazy (Rc_core.Experiments.stage2_state Rc_core.Bench_suite.tiny)

let skew_rows p problem t_vars ~slack extra =
  let open Rc_skew in
  for q = 0 to Skew_problem.n_pairs problem - 1 do
    let i = problem.Skew_problem.src.(q) and j = problem.Skew_problem.dst.(q) in
    ignore
      (Problem.add_row p
         ([ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ] @ extra 1.0)
         Problem.Le
         (problem.Skew_problem.period -. problem.Skew_problem.d_max.(q)
        -. problem.Skew_problem.t_setup -. slack));
    ignore
      (Problem.add_row p
         ([ (t_vars.(i), 1.0); (t_vars.(j), -1.0) ] @ extra (-1.0))
         Problem.Ge
         (slack +. problem.Skew_problem.t_hold -. problem.Skew_problem.d_min.(q)))
  done

let test_max_slack_lp_on_tiny () =
  let open Rc_skew in
  let st = Lazy.force tiny_stage2 in
  let problem = st.Rc_core.Experiments.problem in
  let p = Problem.create () in
  let n = problem.Skew_problem.n in
  let t_vars = Array.init n (fun _ -> Problem.add_var p) in
  let m_var = Problem.add_var ~obj:(-1.0) p in
  skew_rows p problem t_vars ~slack:0.0 (fun c -> [ (m_var, c) ]);
  if n > 0 then ignore (Problem.add_row p [ (t_vars.(0), 1.0) ] Problem.Eq 0.0);
  let ub = Skew_problem.slack_upper_bound problem in
  if Float.is_finite ub then Problem.set_bounds p m_var ~lo:neg_infinity ~hi:ub;
  check_same "max-slack LP" p;
  let r = Simplex_ref.solve p in
  let lib = Option.get (Max_slack.solve_lp problem) in
  Alcotest.(check bool) "Max_slack.solve_lp's slack is the reference's" true
    (lib.Max_slack.slack = r.Simplex.x.(m_var));
  let lo = Array.fold_left (fun acc v -> Float.min acc r.Simplex.x.(v)) infinity t_vars in
  Alcotest.(check bool) "and so are its skews" true
    (same_floats lib.Max_slack.skews (Array.map (fun v -> r.Simplex.x.(v) -. lo) t_vars))

let test_weighted_lp_on_tiny () =
  let open Rc_skew in
  let st = Lazy.force tiny_stage2 in
  let problem = st.Rc_core.Experiments.problem in
  let tech = st.Rc_core.Experiments.tech and rings = st.Rc_core.Experiments.rings in
  let ff_positions = st.Rc_core.Experiments.ff_positions in
  let targets = st.Rc_core.Experiments.targets in
  let a = Rc_assign.Assign.by_netflow tech rings ~ff_positions ~targets in
  let anchors = Rc_core.Flow.anchors_of_assignment tech rings a ~ff_positions ~skews:targets in
  let slack = 0.5 *. (Option.get (Max_slack.solve_graph problem)).Max_slack.slack in
  let p = Problem.create () in
  let t_vars = Array.init problem.Skew_problem.n (fun _ -> Problem.add_var p) in
  let d_vars =
    Array.map
      (fun a -> Problem.add_var ~lo:0.0 ~obj:(Float.max a.Cost_driven.weight 0.0) p)
      anchors
  in
  skew_rows p problem t_vars ~slack (fun _ -> []);
  Array.iteri
    (fun i a ->
      let ideal = a.Cost_driven.t_c +. a.Cost_driven.t_ci in
      ignore (Problem.add_row p [ (t_vars.(i), 1.0); (d_vars.(i), -1.0) ] Problem.Le ideal);
      ignore (Problem.add_row p [ (t_vars.(i), -1.0); (d_vars.(i), -1.0) ] Problem.Le (-.ideal)))
    anchors;
  check_same "weighted LP" p;
  let r = Simplex_ref.solve p in
  let lib = Option.get (Cost_driven.solve_weighted_lp problem ~slack ~anchors) in
  Alcotest.(check bool) "Cost_driven.solve_weighted_lp is the reference's" true
    (lib.Cost_driven.objective = r.Simplex.objective
    && same_floats lib.Cost_driven.skews (Array.map (fun v -> r.Simplex.x.(v)) t_vars))

let () =
  Alcotest.run "rc_lp"
    [
      ("problem", [ Alcotest.test_case "builder" `Quick test_problem_builder ]);
      ( "simplex",
        [
          Alcotest.test_case "textbook LP" `Quick test_textbook_lp;
          Alcotest.test_case "equality rows" `Quick test_equality_rows;
          Alcotest.test_case "ge rows" `Quick test_ge_rows;
          Alcotest.test_case "infeasible bounds" `Quick test_infeasible;
          Alcotest.test_case "infeasible equalities" `Quick test_infeasible_equalities;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "free vars / difference constraints" `Quick
            test_free_variables_difference_constraints;
          Alcotest.test_case "upper bound only" `Quick test_bounded_above_only;
          Alcotest.test_case "bound flips" `Quick test_bound_flip_path;
          Alcotest.test_case "strong duality" `Quick test_duals_of_textbook;
          Alcotest.test_case "degenerate optimum" `Quick test_degenerate;
          Alcotest.test_case "min-max assignment shape" `Quick test_min_max_shape;
          QCheck_alcotest.to_alcotest prop_random_feasible_lps;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest prop_random_lps_match_reference;
          Alcotest.test_case "random LPs reach every status" `Quick test_random_lps_cover_statuses;
          QCheck_alcotest.to_alcotest prop_minmax_lps_match_reference;
          Alcotest.test_case "min-max LP at s9234's shape" `Quick test_minmax_s9234_shape;
          Alcotest.test_case "max-slack LP on tiny" `Quick test_max_slack_lp_on_tiny;
          Alcotest.test_case "weighted LP on tiny" `Quick test_weighted_lp_on_tiny;
        ] );
    ]
