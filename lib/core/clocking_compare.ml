type row = {
  scheme : string;
  clock_wire : float;
  clock_cap : float;
  clock_power : float;
  skew_spread : float;
  extra : string;
}

let run (o : Flow.outcome) =
  let model = Rc_variation.Variation.default_model in
  let tech = o.Flow.cfg.Flow.tech in
  let ffs, _ = Flow.ff_index o.Flow.netlist in
  let n_ffs = Array.length ffs in
  let chip = Bench_suite.chip o.Flow.cfg.Flow.bench in
  let sink_list =
    Array.to_list (Array.map (fun c -> (o.Flow.positions.(c), tech.Rc_tech.Tech.c_ff)) ffs)
  in
  let pin_cap = float_of_int n_ffs *. tech.Rc_tech.Tech.c_ff in
  let power cap = Rc_power.Power.dynamic_mw tech ~alpha:1.0 ~cap_ff:cap in
  (* conventional zero-skew tree *)
  let ctree = Rc_ctree.Ctree.build tech ~sinks:sink_list in
  let tstats = Rc_ctree.Ctree.stats ctree in
  let tree_cap =
    (tstats.Rc_ctree.Ctree.total_wirelength *. tech.Rc_tech.Tech.c_wire) +. pin_cap
  in
  let tree_var = Rc_variation.Variation.tree_skew model ctree in
  let tree_row =
    {
      scheme = "zero-skew tree";
      clock_wire = tstats.Rc_ctree.Ctree.total_wirelength;
      clock_cap = tree_cap;
      clock_power = power tree_cap;
      skew_spread = tree_var.Rc_variation.Variation.mean_spread;
      extra = Printf.sprintf "PL %.0f um" tstats.Rc_ctree.Ctree.avg_path_length;
    }
  in
  (* clock mesh at a realistic ~100 µm pitch — meshes buy their low skew
     with a dense grid, which is the overhead the paper criticizes *)
  let mesh_grid =
    max o.Flow.cfg.Flow.bench.Bench_suite.ring_grid
      (int_of_float (Float.ceil (Rc_geom.Rect.width chip /. 100.0)))
  in
  let mesh = Rc_ctree.Mesh.create ~chip ~grid:mesh_grid in
  let mstats = Rc_ctree.Mesh.stats tech mesh ~sinks:sink_list in
  let mesh_sinks =
    Array.map
      (fun c ->
        {
          Rc_variation.Variation.ring_delay = 0.0;
          stub_delay =
            Rc_rotary.Tapping.stub_delay tech
              (Rc_ctree.Mesh.stub_length mesh o.Flow.positions.(c));
        })
      ffs
  in
  let mesh_var = Rc_variation.Variation.rotary_skew model mesh_sinks in
  let mesh_row =
    {
      scheme = "clock mesh";
      clock_wire = mstats.Rc_ctree.Mesh.mesh_wl +. mstats.Rc_ctree.Mesh.stub_wl;
      clock_cap = mstats.Rc_ctree.Mesh.total_cap;
      clock_power = mstats.Rc_ctree.Mesh.clock_power_mw;
      skew_spread = mesh_var.Rc_variation.Variation.mean_spread;
      extra = Printf.sprintf "max stub %.0f um" mstats.Rc_ctree.Mesh.max_stub;
    }
  in
  (* rotary: switched load = tapping stubs + pins; ring metal recirculates *)
  let tap_wl = o.Flow.final.Flow.tapping_wl in
  let rot_cap = (tap_wl *. tech.Rc_tech.Tech.c_wire) +. pin_cap in
  let vs = Variation_study.run o in
  let ring_metal =
    Array.fold_left
      (fun acc r -> acc +. (2.0 *. Rc_rotary.Ring.perimeter r))
      0.0
      (Rc_rotary.Ring_array.rings o.Flow.rings)
  in
  let rotary_row =
    {
      scheme = "rotary (this flow)";
      clock_wire = tap_wl;
      clock_cap = rot_cap;
      clock_power = power rot_cap;
      skew_spread = vs.Variation_study.rotary.Rc_variation.Variation.mean_spread;
      extra = Printf.sprintf "+%.0f um ring metal (recirculating)" ring_metal;
    }
  in
  let rows = [ tree_row; mesh_row; rotary_row ] in
  let table =
    let module R = Rc_obs.Report in
    {
      R.title =
        Printf.sprintf "Clocking-scheme comparison (%s): Section I motivation quantified"
          o.Flow.cfg.Flow.bench.Bench_suite.bname;
      columns =
        [ "Scheme"; "Clock wire (um)"; "Switched cap (fF)"; "Power (mW)"; "Skew spread (ps)";
          "Note" ];
      rows =
        List.map
          (fun r ->
            [
              R.Str r.scheme;
              R.Float (r.clock_wire, 0);
              R.Float (r.clock_cap, 0);
              R.Float (r.clock_power, 2);
              R.Float (r.skew_spread, 2);
              R.Str r.extra;
            ])
          rows;
    }
  in
  (rows, table)
