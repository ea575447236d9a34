(* Tests for Rc_geom: points, rectangles, axis-aligned segments. *)

open Rc_geom

let check_float = Alcotest.(check (float 1e-9))
let p = Point.make

let test_point_ops () =
  let a = p 1.0 2.0 and b = p 4.0 6.0 in
  check_float "manhattan" 7.0 (Point.manhattan a b);
  Alcotest.(check bool) "add" true (Point.equal (Point.add a b) (p 5.0 8.0));
  Alcotest.(check bool) "scale" true (Point.equal (Point.scale 2.0 a) (p 2.0 4.0))

let test_rect_basic () =
  let r = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:4.0 ~ymax:2.0 in
  check_float "width" 4.0 (Rect.width r);
  check_float "height" 2.0 (Rect.height r);
  check_float "hpwl" 6.0 (Reference_kernels.half_perimeter r);
  Alcotest.(check bool) "center" true (Point.equal (Rect.center r) (p 2.0 1.0));
  Alcotest.(check bool) "contains inside" true (Rect.contains r (p 1.0 1.0));
  Alcotest.(check bool) "contains boundary" true (Rect.contains r (p 4.0 2.0));
  Alcotest.(check bool) "outside" false (Rect.contains r (p 5.0 1.0))

let test_rect_invalid () =
  Alcotest.check_raises "inverted" (Invalid_argument "Rect.make: inverted bounds") (fun () ->
      ignore (Rect.make ~xmin:1.0 ~ymin:0.0 ~xmax:0.0 ~ymax:1.0))

let test_rect_of_points () =
  let r = Reference_kernels.rect_of_points [ p 1.0 5.0; p (-2.0) 3.0; p 4.0 0.0 ] in
  check_float "xmin" (-2.0) r.Rect.xmin;
  check_float "xmax" 4.0 r.Rect.xmax;
  check_float "ymin" 0.0 r.Rect.ymin;
  check_float "ymax" 5.0 r.Rect.ymax

let test_rect_clamp () =
  let r = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.0 ~ymax:2.0 in
  Alcotest.(check bool) "clamps" true (Point.equal (Rect.clamp_point r (p 5.0 (-1.0))) (p 2.0 0.0));
  Alcotest.(check bool) "inside unchanged" true
    (Point.equal (Rect.clamp_point r (p 1.0 1.0)) (p 1.0 1.0))

let test_rect_expand () =
  let r = Rect.expand (Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.0 ~ymax:2.0) 1.0 in
  check_float "expanded xmin" (-1.0) r.Rect.xmin;
  check_float "expanded ymax" 3.0 r.Rect.ymax

let test_segment_basic () =
  let s = Segment.make (p 0.0 0.0) (p 10.0 0.0) in
  check_float "length" 10.0 (Segment.length s);
  Alcotest.(check bool) "horizontal" true (Segment.is_horizontal s);
  Alcotest.(check bool) "point_at" true (Point.equal (Segment.point_at s 3.0) (p 3.0 0.0));
  Alcotest.(check bool) "point_at clamped" true (Point.equal (Segment.point_at s 99.0) (p 10.0 0.0));
  check_float "param of inside point" 4.0 (Segment.param_of_point s (p 4.0 5.0));
  check_float "param clamped" 10.0 (Segment.param_of_point s (p 15.0 5.0));
  check_float "manhattan to point above" 5.0 (Segment.manhattan_to_point s (p 4.0 5.0));
  check_float "manhattan past the end" 7.0 (Segment.manhattan_to_point s (p 12.0 5.0))

let test_segment_vertical () =
  let s = Segment.make (p 2.0 10.0) (p 2.0 0.0) in
  Alcotest.(check bool) "vertical" false (Segment.is_horizontal s);
  Alcotest.(check bool) "directed param" true (Point.equal (Segment.point_at s 4.0) (p 2.0 6.0));
  check_float "param" 7.0 (Segment.param_of_point s (p 0.0 3.0))

let test_segment_invalid () =
  Alcotest.check_raises "diagonal rejected" (Invalid_argument "Segment.make: not axis-aligned")
    (fun () -> ignore (Segment.make (p 0.0 0.0) (p 1.0 1.0)))

let prop_manhattan_triangle =
  QCheck.Test.make ~name:"manhattan triangle inequality" ~count:300
    QCheck.(triple (pair (float_range (-100.) 100.) (float_range (-100.) 100.))
              (pair (float_range (-100.) 100.) (float_range (-100.) 100.))
              (pair (float_range (-100.) 100.) (float_range (-100.) 100.)))
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
      let a = p ax ay and b = p bx by and c = p cx cy in
      Point.manhattan a c <= Point.manhattan a b +. Point.manhattan b c +. 1e-9)

let prop_clamp_inside =
  QCheck.Test.make ~name:"clamp_point lands inside" ~count:300
    QCheck.(pair (pair (float_range (-50.) 50.) (float_range (-50.) 50.))
              (pair (float_range 0.1 50.) (float_range 0.1 50.)))
    (fun ((px, py), (w, h)) ->
      let r = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:w ~ymax:h in
      Rect.contains r (Rect.clamp_point r (p px py)))

let () =
  Alcotest.run "rc_geom"
    [
      ("point", [ Alcotest.test_case "ops" `Quick test_point_ops;
                  QCheck_alcotest.to_alcotest prop_manhattan_triangle ]);
      ( "rect",
        [
          Alcotest.test_case "basic" `Quick test_rect_basic;
          Alcotest.test_case "invalid" `Quick test_rect_invalid;
          Alcotest.test_case "of_points" `Quick test_rect_of_points;
          Alcotest.test_case "clamp" `Quick test_rect_clamp;
          Alcotest.test_case "expand" `Quick test_rect_expand;
          QCheck_alcotest.to_alcotest prop_clamp_inside;
        ] );
      ( "segment",
        [
          Alcotest.test_case "horizontal" `Quick test_segment_basic;
          Alcotest.test_case "vertical" `Quick test_segment_vertical;
          Alcotest.test_case "invalid" `Quick test_segment_invalid;
        ] );
    ]
