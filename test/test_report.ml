(* Tests for the Rc_obs.Report table model: the fixed-width text
   renderer, the one cell format every renderer shares, the percentage
   helper the tables use, and the paper-shape checker that reads the
   tables' JSON. *)

module R = Rc_obs.Report

let table ?(title = "T") columns rows = { R.title; columns; rows }

(* the text of one cell, as the text renderer prints it: the only row
   of a one-column table under an empty header *)
let cell_text c =
  match String.split_on_char '\n' (R.to_text (table [ "" ] [ [ c ] ])) with
  | [ _; _; _; _; row; _ ] -> String.sub row 2 (String.length row - 4)
  | _ -> Alcotest.fail "one-row table has six lines"

let test_float_cells () =
  Alcotest.(check string) "one dp" "3.1" (cell_text (R.Float (3.14159, 1)));
  Alcotest.(check string) "two dp" "3.14" (cell_text (R.Float (3.14159, 2)));
  Alcotest.(check string) "nan dash" "-" (cell_text (R.Float (nan, 1)));
  Alcotest.(check string) "large integer keeps its decimals" "12000.0"
    (cell_text (R.Float (12000.0, 1)));
  Alcotest.(check string) "int" "42" (cell_text (R.Int 42))

let test_pct_cells () =
  Alcotest.(check string) "positive" "12.5 %" (cell_text (R.Pct 12.5));
  Alcotest.(check string) "negative" "-3.0 %" (cell_text (R.Pct (-3.0)));
  Alcotest.(check string) "nan" "-" (cell_text (R.Pct nan))

let test_pct_improvement () =
  let pct = Rc_util.Stats.pct_improvement in
  Alcotest.(check (float 1e-9)) "halved" 50.0 (pct ~from:10.0 ~to_:5.0);
  Alcotest.(check (float 1e-9)) "worse is negative" (-50.0) (pct ~from:10.0 ~to_:15.0);
  Alcotest.(check bool) "zero base is nan" true (Float.is_nan (pct ~from:0.0 ~to_:1.0))

let test_render_shape () =
  let t =
    R.to_text
      (table [ "a"; "bb"; "c" ]
         [ [ R.Str "x"; R.Int 1; R.Str "p" ]; [ R.Str "yyyy"; R.Int 22; R.Float (1.5, 1) ] ])
  in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check int) "title + 3 rules + header + 2 rows" 7 (List.length lines);
  Alcotest.(check string) "title first" "T" (List.hd lines);
  (* all table lines have equal width *)
  let widths = List.map String.length (List.tl lines) in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths;
  (* text columns left-aligned, the all-numeric column right-aligned;
     a column mixing text and numbers is text *)
  Alcotest.(check (list string)) "layout"
    [
      "T";
      "+------+----+-----+";
      "| a    | bb | c   |";
      "+------+----+-----+";
      "| x    |  1 | p   |";
      "| yyyy | 22 | 1.5 |";
      "+------+----+-----+";
    ]
    lines

let test_render_ragged_rejected () =
  let ragged = table ~title:"t" [ "a"; "b" ] [ [ R.Str "only one" ] ] in
  let doc = { R.title = "d"; intro = ""; sections = [ R.section "s" ~tables:[ ragged ] ] } in
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Report: ragged row in table \"t\"") (fun () ->
        ignore (f ()))
  in
  raises "text" (fun () -> R.to_text ragged);
  raises "markdown" (fun () -> R.to_markdown doc);
  raises "json" (fun () -> R.to_json doc)

let prop_render_never_truncates =
  QCheck.Test.make ~name:"render keeps every cell's content" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 6) (string_gen_of_size Gen.(int_range 1 10) Gen.printable))
    (fun cells ->
      let cells = List.map (String.map (fun c -> if c = '\n' || c = '|' then '_' else c)) cells in
      let columns = List.map (fun _ -> "h") cells in
      let t = R.to_text (table ~title:"t" columns [ List.map (fun c -> R.Str c) cells ]) in
      List.for_all
        (fun c ->
          (* substring check *)
          let n = String.length t and m = String.length c in
          let rec go i = i + m <= n && (String.sub t i m = c || go (i + 1)) in
          m = 0 || go 0)
        cells)

(* ---- the paper-shape checker ------------------------------------------ *)

let shape_json tables =
  R.to_json { R.title = "d"; intro = ""; sections = [ R.section "s" ~tables ] }

let table_iv rows =
  table ~title:"Table IV: network flow" [ "Circuit"; "Tap Imp"; "Imp" ]
    (List.map (fun (c, v) -> [ R.Str c; R.Pct v; R.Pct 0.0 ]) rows)

let test_shape_failing_bound () =
  let bounds =
    Shape_check.parse
      "# a comment\n\n\
       Table IV | Tap Imp | * | >= 30 | tapping falls by a third\n\
       Table IV | Tap Imp | s5378 | > Imp | tapping gains on s5378\n"
  in
  let r =
    Shape_check.check ~circuits:[ "s9234"; "s5378"; "s15850" ] bounds
      (shape_json [ table_iv [ ("s9234", 25.0); ("s5378", 40.0) ] ])
  in
  Alcotest.(check int) "checked" 3 r.Shape_check.checked;
  Alcotest.(check (list string)) "failure message"
    [ "Table IV | Tap Imp | s9234: 25 is not >= 30 -- claim: tapping falls by a third" ]
    r.Shape_check.failures;
  Alcotest.(check (list string)) "missing row skipped" [ "Table IV | Tap Imp | s15850" ]
    r.Shape_check.skipped

let test_shape_unknown_names () =
  let check text =
    Shape_check.check ~circuits:[ "s9234" ] (Shape_check.parse text)
      (shape_json [ table_iv [ ("s9234", 40.0) ] ])
  in
  Alcotest.check_raises "unknown table" (Failure "shape: unknown table \"Table IX\"") (fun () ->
      ignore (check "Table IX | Tap Imp | * | > 0 | c"));
  Alcotest.check_raises "unknown column"
    (Failure "shape: Table IV has no column \"Cap Imp\"") (fun () ->
      ignore (check "Table IV | Cap Imp | * | > 0 | c"));
  Alcotest.check_raises "ambiguous column"
    (Failure "shape: \"Imp\" matches more than one column of Table IV") (fun () ->
      ignore
        (Shape_check.check ~circuits:[] (Shape_check.parse "Table IV | Imp | * | > 0 | c")
           (shape_json
              [ table ~title:"Table IV: t" [ "Circuit"; "Imp"; "Imp" ] [] ])));
  Alcotest.check_raises "bad comparison" (Failure "shape line 1: unknown comparison =")
    (fun () -> ignore (Shape_check.parse "Table IV | Tap Imp | * | = 0 | c"))

let () =
  Alcotest.run "rc_report"
    [
      ( "formatting",
        [
          Alcotest.test_case "floats" `Quick test_float_cells;
          Alcotest.test_case "percentages" `Quick test_pct_cells;
          Alcotest.test_case "improvement" `Quick test_pct_improvement;
        ] );
      ( "render",
        [
          Alcotest.test_case "shape" `Quick test_render_shape;
          Alcotest.test_case "ragged rejected" `Quick test_render_ragged_rejected;
          QCheck_alcotest.to_alcotest prop_render_never_truncates;
        ] );
      ( "shape",
        [
          Alcotest.test_case "failing bound message" `Quick test_shape_failing_bound;
          Alcotest.test_case "unknown names rejected" `Quick test_shape_unknown_names;
        ] );
    ]
