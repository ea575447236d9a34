(* Tests for Rc_lp: model building and the two-phase bounded-variable
   simplex (optimality, infeasibility, unboundedness, free variables,
   equality rows, duals, randomized feasibility/optimality checks). *)

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
    ]
