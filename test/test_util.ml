(* Tests for Rc_util: RNG determinism and distributions, statistics,
   approximate comparison. *)

open Rc_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 8 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let v = Rng.int_in r (-3) 3 in
    Alcotest.(check bool) "in range" true (v >= -3 && v <= 3);
    if v = -3 then seen_lo := true;
    if v = 3 then seen_hi := true
  done;
  Alcotest.(check bool) "endpoints reachable" true (!seen_lo && !seen_hi)

let test_rng_int_invalid () =
  let r = Rng.create 9 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* splitmix64 skips n draws by adding n·γ to the state (mod 2⁶⁴): equal
   to n single steps, for [skip] in place and for [ahead] without
   touching its argument *)
let prop_rng_skip_ahead =
  QCheck.Test.make ~name:"skip n = n single draws; ahead leaves its source alone" ~count:300
    QCheck.(pair small_int (int_range 0 5000))
    (fun (seed, n) ->
      let stepped = Rng.create seed and skipped = Rng.create seed and source = Rng.create seed in
      for _ = 1 to n do
        ignore (Rng.bits64 stepped)
      done;
      Rng.skip skipped n;
      let fresh = Rng.ahead source n in
      let s = Rng.bits64 stepped in
      s = Rng.bits64 skipped && s = Rng.bits64 fresh
      && Rng.bits64 source = Rng.bits64 (Rng.create seed)
      && Rng.float stepped 1.0 = Rng.float skipped 1.0)

let test_rng_skip_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "skip -1" (Invalid_argument "Rng.skip: negative count") (fun () ->
      Rng.skip r (-1));
  Alcotest.check_raises "ahead -1" (Invalid_argument "Rng.ahead: negative count") (fun () ->
      ignore (Rng.ahead r (-1)))

let test_rng_float_range () =
  let r = Rng.create 10 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_float_mean () =
  let r = Rng.create 11 in
  let samples = Array.init 20000 (fun _ -> Rng.float r 1.0) in
  let m = Stats.mean samples in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_gaussian () =
  let r = Rng.create 12 in
  let samples = Array.init 20000 (fun _ -> Rng.gaussian r ~mean:5.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean" true (Float.abs (Stats.mean samples -. 5.0) < 0.1);
  Alcotest.(check bool) "sigma" true (Float.abs (Stats.stddev samples -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let r = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

let test_stats_mean_sum () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||])

let test_stats_minmax () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0; 2.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_stats_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p50" 3.0 (Stats.percentile a 50.0);
  check_float "p100" 5.0 (Stats.percentile a 100.0);
  check_float "p25" 2.0 (Stats.percentile a 25.0);
  check_float "single" 9.0 (Stats.percentile [| 9.0 |] 50.0)

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [| 2.0; 2.0; 2.0 |]);
  check_float "simple" (sqrt 2.0) (Stats.stddev [| 1.0; 3.0; 1.0; 3.0; 1.0; 3.0 |] *. sqrt 2.0)

let test_approx () =
  Alcotest.(check bool) "equal close" true (Approx.equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "not equal far" false (Approx.equal 1.0 1.1);
  check_float "clamp low" 0.0 (Approx.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "clamp high" 1.0 (Approx.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "clamp mid" 0.5 (Approx.clamp ~lo:0.0 ~hi:1.0 0.5)

(* ---- JSON parser ------------------------------------------------------ *)

let json_testable = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_line j)) ( = )

let parse_ok s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_json_parse_scalars () =
  Alcotest.(check json_testable) "null" Json.Null (parse_ok "null");
  Alcotest.(check json_testable) "true" (Json.Bool true) (parse_ok "true");
  Alcotest.(check json_testable) "false" (Json.Bool false) (parse_ok " false ");
  Alcotest.(check json_testable) "int" (Json.Int (-42)) (parse_ok "-42");
  Alcotest.(check json_testable) "zero" (Json.Int 0) (parse_ok "0");
  Alcotest.(check json_testable) "float" (Json.Float 2.5) (parse_ok "2.5");
  Alcotest.(check json_testable) "exponent is a float" (Json.Float 100.0) (parse_ok "1e2");
  Alcotest.(check json_testable) "negative exponent" (Json.Float 0.001) (parse_ok "1E-3");
  Alcotest.(check json_testable) "string" (Json.String "hi") (parse_ok {|"hi"|})

let test_json_parse_structures () =
  Alcotest.(check json_testable) "empty list" (Json.List []) (parse_ok "[ ]");
  Alcotest.(check json_testable) "empty obj" (Json.Obj []) (parse_ok "{}");
  Alcotest.(check json_testable)
    "nested"
    (Json.Obj
       [
         ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
         ("b", Json.Obj [ ("c", Json.Bool true) ]);
       ])
    (parse_ok {| {"a": [1, 2.5, null], "b": {"c": true}} |})

let test_json_parse_escapes () =
  Alcotest.(check json_testable)
    "simple escapes"
    (Json.String "a\"b\\c/d\bx\012y\nz\rw\tv")
    (parse_ok {|"a\"b\\c\/d\bx\fy\nz\rw\tv"|});
  Alcotest.(check json_testable) "ascii \\u" (Json.String "A") (parse_ok "\"\\u0041\"");
  (* \u escapes decode to UTF-8: two-byte and three-byte sequences *)
  Alcotest.(check json_testable) "latin-1 \\u" (Json.String "\xc3\xa9") (parse_ok "\"\\u00e9\"");
  Alcotest.(check json_testable) "bmp \\u" (Json.String "\xe2\x82\xac") (parse_ok "\"\\u20ac\"");
  (* surrogate pair: U+1D11E musical G clef *)
  Alcotest.(check json_testable)
    "surrogate pair"
    (Json.String "\xf0\x9d\x84\x9e")
    (parse_ok "\"\\ud834\\udd1e\"");
  (* raw UTF-8 bytes pass through untouched *)
  Alcotest.(check json_testable) "raw utf-8" (Json.String "\xc3\xa9") (parse_ok "\"\xc3\xa9\"")

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok j -> Alcotest.failf "accepted %S as %s" s (Json.to_line j))
    [
      "";
      "tru";
      "nulll";
      "[1,]";
      "{\"a\":}";
      "{\"a\" 1}";
      "{a: 1}";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"half \\ud834 pair\"";
      "01";
      "1.";
      "+1";
      "- 1";
      "[1] trailing";
      "{}{}";
      "'single'";
    ];
  (* error messages carry the byte offset *)
  match Json.of_string "[1, oops]" with
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "offset in %S" e) true
        (String.length e > 7 && String.sub e 0 7 = "offset ")
  | Ok _ -> Alcotest.fail "accepted garbage"

let test_json_accessors () =
  let j = parse_ok {|{"n": 3, "x": 1.5, "s": "str", "b": true, "l": [1], "z": null}|} in
  Alcotest.(check (option int)) "int" (Some 3) (Option.bind (Json.member "n" j) Json.to_int_opt);
  Alcotest.(check (option (float 0.0))) "float" (Some 1.5)
    (Option.bind (Json.member "x" j) Json.to_float_opt);
  Alcotest.(check (option (float 0.0))) "int widens to float" (Some 3.0)
    (Option.bind (Json.member "n" j) Json.to_float_opt);
  Alcotest.(check (option string)) "string" (Some "str")
    (Option.bind (Json.member "s" j) Json.to_string_opt);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.member "b" j) Json.to_bool_opt);
  Alcotest.(check bool) "list" true
    (Option.bind (Json.member "l" j) Json.to_list_opt = Some [ Json.Int 1 ]);
  Alcotest.(check bool) "missing member" true (Json.member "nope" j = None);
  Alcotest.(check (option int)) "wrong type" None
    (Option.bind (Json.member "s" j) Json.to_int_opt)

(* random document generator for the round-trip property *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:printable (int_range 0 8) in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
               ( 1,
                 map
                   (fun ps -> Json.Obj ps)
                   (list_size (int_range 0 4) (pair key (self (n / 2)))) );
             ])

let json_arbitrary = QCheck.make ~print:Json.to_line json_gen

(* Emission-normalized round-trip: parse(emit(v)) may differ from v only
   by float formatting (%.12g), so compare the emissions — idempotent
   because 12 significant digits always survive a decimal->double->
   decimal trip. *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"json parse inverts emit (normalized)" ~count:500 json_arbitrary
    (fun v ->
      let s = Json.to_line v in
      match Json.of_string s with
      | Error e -> QCheck.Test.fail_reportf "emitted %S failed to parse: %s" s e
      | Ok v2 -> Json.to_line v2 = s)

(* For documents without floats the round-trip is exact, not just
   normalized. *)
let json_no_float_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
               ( 1,
                 map
                   (fun ps -> Json.Obj ps)
                   (list_size (int_range 0 4)
                      (pair (string_size ~gen:printable (int_range 0 8)) (self (n / 2)))) );
             ])

let prop_json_roundtrip_exact =
  QCheck.Test.make ~name:"json round-trip is exact without floats" ~count:500
    (QCheck.make ~print:Json.to_line json_no_float_gen) (fun v ->
      Json.of_string (Json.to_line v) = Ok v)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range (-100.) 100.)) (float_range 0. 100.))
    (fun (l, p) ->
      let a = Array.of_list l in
      let lo, hi = Stats.min_max a in
      let v = Stats.percentile a p in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_rng_float_in =
  QCheck.Test.make ~name:"float_in stays in range" ~count:200
    QCheck.(pair small_int (pair (float_range (-50.) 50.) (float_range 0.01 50.)))
    (fun (seed, (lo, span)) ->
      let r = Rng.create seed in
      let v = Rng.float_in r lo (lo +. span) in
      v >= lo && v < lo +. span)

let () =
  Alcotest.run "rc_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          QCheck_alcotest.to_alcotest prop_rng_skip_ahead;
          Alcotest.test_case "skip invalid count" `Quick test_rng_skip_invalid;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_rng_float_in;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/sum" `Quick test_stats_mean_sum;
          Alcotest.test_case "min_max" `Quick test_stats_minmax;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          QCheck_alcotest.to_alcotest prop_percentile_bounds;
        ] );
      ("approx", [ Alcotest.test_case "comparisons" `Quick test_approx ]);
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_parse_scalars;
          Alcotest.test_case "structures" `Quick test_json_parse_structures;
          Alcotest.test_case "string escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "rejects malformed input" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_roundtrip_exact;
        ] );
    ]
