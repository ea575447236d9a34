(* Tests for the global router: grid bookkeeping, single-connection
   routing, congestion negotiation, and netlist-level routing. *)

open Rc_geom
open Rc_route

let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:800.0 ~ymax:800.0

let test_grid_geometry () =
  let g = Grid.create ~chip ~nx:8 ~ny:8 ~capacity:4 in
  Alcotest.(check (pair int int)) "cell of origin corner" (0, 0)
    (Grid.cell_of g (Point.make 1.0 1.0));
  Alcotest.(check (pair int int)) "cell of far corner" (7, 7)
    (Grid.cell_of g (Point.make 799.0 799.0));
  Alcotest.(check (pair int int)) "clamped outside" (0, 7)
    (Grid.cell_of g (Point.make (-10.0) 900.0));
  let pw, ph = Grid.cell_pitch g in
  Alcotest.(check (float 1e-9)) "pitch" 100.0 pw;
  Alcotest.(check (float 1e-9)) "pitch y" 100.0 ph

let test_grid_usage () =
  let g = Grid.create ~chip ~nx:4 ~ny:4 ~capacity:2 in
  Alcotest.(check int) "fresh" 0 (Grid.usage g (0, 0) (1, 0));
  Grid.add_usage g (0, 0) (1, 0) 3;
  Alcotest.(check int) "after add" 3 (Grid.usage g (1, 0) (0, 0));
  Alcotest.(check int) "overflow counts excess" 1 (Grid.overflow g);
  Grid.add_usage g (0, 0) (1, 0) (-3);
  Alcotest.(check int) "released" 0 (Grid.overflow g);
  Alcotest.check_raises "non-adjacent" (Invalid_argument "Grid: cells are not adjacent")
    (fun () -> ignore (Grid.usage g (0, 0) (2, 0)))

let test_route_single () =
  let g = Grid.create ~chip ~nx:8 ~ny:8 ~capacity:4 in
  let r =
    Router.route_connections g [ (Point.make 50.0 50.0, Point.make 750.0 50.0) ]
  in
  (* 7 horizontal steps of 100 um *)
  Alcotest.(check (float 1e-6)) "manhattan route" 700.0 r.Router.wirelength;
  Alcotest.(check int) "no overflow" 0 r.Router.overflow

let test_route_negotiation () =
  (* capacity 1 and three parallel connections across the same column:
     negotiation must spread them over distinct rows' edges *)
  let g = Grid.create ~chip ~nx:8 ~ny:8 ~capacity:1 in
  let conns =
    [
      (Point.make 50.0 350.0, Point.make 750.0 350.0);
      (Point.make 50.0 350.0, Point.make 750.0 350.0);
      (Point.make 50.0 350.0, Point.make 750.0 350.0);
    ]
  in
  let r = Router.route_connections g conns in
  Alcotest.(check int) "congestion resolved" 0 r.Router.overflow;
  Alcotest.(check bool) "detours cost wire" true (r.Router.wirelength > 3.0 *. 700.0)

let test_route_netlist_small () =
  let cfg =
    {
      Rc_netlist.Generator.default_config with
      Rc_netlist.Generator.name = "route";
      n_logic = 60;
      n_ffs = 8;
      n_nets = 66;
      n_inputs = 4;
      n_outputs = 4;
      chip;
      seed = 3;
    }
  in
  let nl = Rc_netlist.Generator.generate cfg in
  let placed = Rc_place.Qplace.initial nl ~chip in
  let r = Router.route_netlist ~chip nl placed.Rc_place.Qplace.positions in
  Alcotest.(check bool) "routes everything without overflow" true (r.Router.overflow = 0);
  (* routed length is at least the Steiner lower bound's order: the
     g-cell metric quantizes, so just require sane magnitude *)
  let steiner = Rc_place.Steiner.total nl placed.Rc_place.Qplace.positions in
  Alcotest.(check bool)
    (Printf.sprintf "routed %.0f within 3x of steiner %.0f" r.Router.wirelength steiner)
    true
    (r.Router.wirelength < 3.0 *. steiner +. 5000.0);
  (* congestion map shape *)
  let m = Grid.congestion_map r.Router.grid in
  Alcotest.(check int) "map x" 32 (Array.length m);
  Alcotest.(check int) "map y" 32 (Array.length m.(0));
  Array.iter
    (Array.iter (fun v -> Alcotest.(check bool) "ratio nonnegative" true (v >= 0.0)))
    m

let prop_route_endpoints_connected =
  QCheck.Test.make ~name:"routes always connect their endpoints cells" ~count:50
    QCheck.(quad (float_range 0.0 800.0) (float_range 0.0 800.0)
              (float_range 0.0 800.0) (float_range 0.0 800.0))
    (fun (x1, y1, x2, y2) ->
      let g = Grid.create ~chip ~nx:8 ~ny:8 ~capacity:8 in
      let a = Point.make x1 y1 and b = Point.make x2 y2 in
      let r = Router.route_connections g [ (a, b) ] in
      let (ax, ay) = Grid.cell_of g a and (bx, by) = Grid.cell_of g b in
      let expected =
        let pw, ph = Grid.cell_pitch g in
        (float_of_int (abs (ax - bx)) *. pw) +. (float_of_int (abs (ay - by)) *. ph)
      in
      Float.abs (r.Router.wirelength -. expected) < 1e-6)

let () =
  Alcotest.run "rc_route"
    [
      ( "grid",
        [
          Alcotest.test_case "geometry" `Quick test_grid_geometry;
          Alcotest.test_case "usage bookkeeping" `Quick test_grid_usage;
        ] );
      ( "router",
        [
          Alcotest.test_case "single connection" `Quick test_route_single;
          Alcotest.test_case "congestion negotiation" `Quick test_route_negotiation;
          Alcotest.test_case "netlist routing" `Quick test_route_netlist_small;
          QCheck_alcotest.to_alcotest prop_route_endpoints_connected;
        ] );
    ]
