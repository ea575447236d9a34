type point = {
  grid : int;
  n_rings : int;
  final : Flow.snapshot;
  slack : float;
  ring_metal : float;
}

let sweep bench ~grids =
  if grids = [] then invalid_arg "Ring_sweep.sweep: no grids";
  let points =
    List.map
      (fun grid ->
        let b = { bench with Bench_suite.ring_grid = grid } in
        let o = Flow.run (Flow.default_config b) in
        let ring_metal =
          Array.fold_left
            (fun acc r -> acc +. (2.0 *. Rc_rotary.Ring.perimeter r))
            0.0
            (Rc_rotary.Ring_array.rings o.Flow.rings)
        in
        {
          grid;
          n_rings = grid * grid;
          final = o.Flow.final;
          slack = o.Flow.slack;
          ring_metal;
        })
      grids
  in
  let best =
    List.fold_left
      (fun acc p ->
        if p.final.Flow.total_wl +. p.ring_metal < acc.final.Flow.total_wl +. acc.ring_metal
        then p
        else acc)
      (List.hd points) (List.tl points)
  in
  (points, best)

let report (points, best) =
  let module R = Rc_obs.Report in
  let rows =
    List.map
      (fun p ->
        [
          R.Str
            (string_of_int p.grid ^ "x" ^ string_of_int p.grid
            ^ if p.grid = best.grid then " *" else "");
          R.Int p.n_rings;
          R.Float (p.final.Flow.afd, 1);
          R.Float (p.final.Flow.tapping_wl, 0);
          R.Float (p.final.Flow.signal_wl, 0);
          R.Float (p.ring_metal, 0);
          R.Float (p.final.Flow.total_wl +. p.ring_metal, 0);
          R.Float (p.final.Flow.total_mw, 2);
        ])
      points
  in
  {
    R.title = "Ring-count sweep (* = best by total wire incl. ring metal)";
    columns = [ "Array"; "#Rings"; "AFD"; "Tap WL"; "Signal WL"; "Ring metal"; "Total"; "Power(mW)" ];
    rows;
  }
