type result = {
  signal_routed : float;
  signal_hpwl : float;
  signal_steiner : float;
  clock_routed : float;
  clock_estimate : float;
  overflow : int;
  max_congestion : float;
  report : string;
}

(* the clock-stub grid: 32x32 g-cells, 48 tracks per boundary *)
let nx = 32
let ny = 32
let capacity = 48

let run (o : Flow.outcome) =
  let chip = Bench_suite.chip o.Flow.cfg.Flow.bench in
  let grid = Rc_route.Grid.create ~chip ~nx ~ny ~capacity in
  (* signal nets *)
  let signal = Rc_route.Router.route_netlist ~chip o.Flow.netlist o.Flow.positions in
  let signal_routed = signal.Rc_route.Router.wirelength in
  (* clock stubs on a shared grid with the signal usage as background *)
  let ffs, _ = Flow.ff_index o.Flow.netlist in
  let stubs =
    Array.to_list
      (Array.mapi
         (fun i cell ->
           (o.Flow.positions.(cell), o.Flow.assignment.Rc_assign.Assign.taps.(i).Rc_rotary.Tapping.point))
         ffs)
  in
  let clock = Rc_route.Router.route_connections grid stubs in
  let congestion =
    Array.fold_left
      (fun acc col -> Array.fold_left Float.max acc col)
      0.0
      (Rc_route.Grid.congestion_map signal.Rc_route.Router.grid)
  in
  let signal_hpwl = Rc_place.Wirelength.total o.Flow.netlist o.Flow.positions in
  let signal_steiner = Rc_place.Steiner.total o.Flow.netlist o.Flow.positions in
  let clock_estimate = o.Flow.final.Flow.tapping_wl in
  let report =
    Printf.sprintf
      "Routing study (%s, %dx%d g-cells, %d tracks):\n\
      \  signal: HPWL %10.0f um | Steiner %10.0f um | routed %10.0f um (x%.2f HPWL)\n\
      \  clock stubs: estimate %8.0f um | routed %8.0f um\n\
      \  overflow %d, peak congestion %.0f%% of capacity\n"
      o.Flow.cfg.Flow.bench.Bench_suite.bname nx ny capacity signal_hpwl signal_steiner
      signal_routed
      (signal_routed /. Float.max signal_hpwl 1.0)
      clock_estimate clock.Rc_route.Router.wirelength
      (signal.Rc_route.Router.overflow + clock.Rc_route.Router.overflow)
      (100.0 *. congestion)
  in
  {
    signal_routed;
    signal_hpwl;
    signal_steiner;
    clock_routed = clock.Rc_route.Router.wirelength;
    clock_estimate;
    overflow = signal.Rc_route.Router.overflow + clock.Rc_route.Router.overflow;
    max_congestion = congestion;
    report;
  }
