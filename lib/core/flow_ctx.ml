(* Typed context threaded through the six-stage flow.

   A stage is a function ctx -> ctx (see Flow_stage); everything the
   stages read or write lives here: the evolving placement, schedule and
   assignment, the snapshot history, the best state seen so far (the
   stage-5 best-state-keeping invariant), convergence bookkeeping, and
   the structured per-stage trace. *)

open Rc_geom
open Rc_rotary

type mode = Netflow | Ilp

type config = {
  tech : Rc_tech.Tech.t;
  bench : Bench_suite.bench;
  mode : mode;
  candidates : int;
  capacity_slack : float;
  max_iterations : int;
  pseudo_weight : float;
  pseudo_growth : float;
  stability : float;
  slack_fraction : float;
  use_weighted_skew : bool;
  convergence_tol : float;
  detail_passes : int;
  tapping_weight : float;
  incremental : bool;
}

type snapshot = {
  iteration : int;
  afd : float;
  tapping_wl : float;
  signal_wl : float;
  total_wl : float;
  clock_mw : float;
  signal_mw : float;
  total_mw : float;
  max_load_ff : float;
}

(* best state seen by stage 5, restored when the flow ships *)
type best = {
  best_cost : float;
  best_positions : Point.t array;
  best_skews : float array;
  best_assignment : Rc_assign.Assign.t;
}

type t = {
  cfg : config;
  arm : string;  (* experiment-arm tag stamped onto trace events; "" outside a suite *)
  netlist : Rc_netlist.Netlist.t;
  chip : Rect.t;
  rings : Ring_array.t;
  ffs : int array;  (* cell index of flip-flop i *)
  positions : Point.t array;  (* per cell; empty until stage 1 *)
  skews : float array;  (* per flip-flop; empty until stage 2 *)
  assignment : Rc_assign.Assign.t option;  (* None until stage 3 *)
  slack : float;  (* stage-2 maximum slack M* *)
  stage4_slack : float;  (* prespecified slack for cost-driven scheduling *)
  n_pairs : int;
  ilp_stats : Rc_assign.Assign.ilp_stats option;
  iteration : int;  (* 0 = prologue; incremented by the loop driver *)
  history : snapshot list;  (* newest first *)
  best : best option;
  current_cost : float;  (* convergence reference (monotone min) *)
  converged : bool;
  trace : Flow_trace.t;
  note : string;  (* set by a stage, moved into the trace by the driver *)
  obs : Rc_obs.Metrics.t;
      (* the solver-metrics registry the stage driver snapshots around
         each stage; the process-global one — stages record into it
         implicitly through the instrumented solver layers *)
  caches : Flow_cache.t;
      (* cross-iteration recomputation state (incremental STA session,
         tap cache, cached assignment solver, dirty-set tracker); consulted
         by stages only when [cfg.incremental] is set *)
}

let ff_index netlist =
  let ffs = Rc_netlist.Netlist.flip_flops netlist in
  let index = Array.make (Rc_netlist.Netlist.n_cells netlist) (-1) in
  Array.iteri (fun i c -> index.(c) <- i) ffs;
  (ffs, fun c -> index.(c))

let create ?(arm = "") cfg netlist =
  let chip = Bench_suite.chip cfg.bench in
  let rings =
    Ring_array.create ~period:cfg.tech.Rc_tech.Tech.clock_period ~chip
      ~grid:cfg.bench.Bench_suite.ring_grid ()
  in
  let ffs, _ = ff_index netlist in
  {
    cfg;
    arm;
    netlist;
    chip;
    rings;
    ffs;
    positions = [||];
    skews = [||];
    assignment = None;
    slack = nan;
    stage4_slack = 0.0;
    n_pairs = 0;
    ilp_stats = None;
    iteration = 0;
    history = [];
    best = None;
    current_cost = infinity;
    converged = false;
    trace = Flow_trace.empty;
    note = "";
    obs = Rc_obs.Metrics.global;
    caches = Flow_cache.create ();
  }

let assignment_exn ctx =
  match ctx.assignment with
  | Some a -> a
  | None -> invalid_arg "Flow_ctx.assignment_exn: no assignment yet (stage 3 has not run)"

let best_exn ctx =
  match ctx.best with
  | Some b -> b
  | None -> invalid_arg "Flow_ctx.best_exn: no snapshot evaluated yet (stage 5 has not run)"

let ff_positions ctx = Array.map (fun c -> ctx.positions.(c)) ctx.ffs

let skew_problem_of_sta tech netlist (sta : Rc_timing.Sta.t) =
  Rc_skew.Skew_problem.make
    ~n:(Rc_netlist.Netlist.n_ffs netlist)
    ~src:sta.Rc_timing.Sta.src ~dst:sta.Rc_timing.Sta.dst ~d_max:sta.Rc_timing.Sta.d_max
    ~d_min:sta.Rc_timing.Sta.d_min ~period:tech.Rc_tech.Tech.clock_period
    ~t_setup:tech.Rc_tech.Tech.t_setup ~t_hold:tech.Rc_tech.Tech.t_hold

let anchors_of_assignment tech rings (assignment : Rc_assign.Assign.t) ~ff_positions ~skews =
  let period = Ring_array.period rings in
  Array.mapi
    (fun i pos ->
      let ring = Ring_array.ring rings assignment.Rc_assign.Assign.ring_of_ff.(i) in
      let l_i = Ring.closest_boundary_distance ring pos in
      let arc = Ring.arc_of_point ring pos in
      let t_ci = Tapping.stub_delay tech l_i in
      (* pick the conductor and whole-period shift that land t_c nearest
         to the current target *)
      let representative conductor =
        let tc = Ring.delay_at ring ~arc ~conductor in
        let k = Float.round ((skews.(i) -. tc) /. period) in
        tc +. (k *. period)
      in
      let t_outer = representative Ring.Outer and t_inner = representative Ring.Inner in
      let t_c =
        if Float.abs (skews.(i) -. t_outer) <= Float.abs (skews.(i) -. t_inner) then t_outer
        else t_inner
      in
      { Rc_skew.Cost_driven.t_c; t_ci; weight = l_i })
    ff_positions

let take_snapshot ctx ~iteration =
  let cfg = ctx.cfg in
  let assignment = assignment_exn ctx in
  let tech = cfg.tech in
  let n_ffs = Rc_netlist.Netlist.n_ffs ctx.netlist in
  let tapping_wl = assignment.Rc_assign.Assign.total_cost in
  let signal_wl = Rc_place.Wirelength.total ctx.netlist ctx.positions in
  let clock_mw = Rc_power.Power.clock_power_mw tech ~tapping_wirelength:tapping_wl ~n_ffs in
  let signal_mw = Rc_power.Power.signal_power_mw tech ctx.netlist ctx.positions in
  {
    iteration;
    afd = (if n_ffs = 0 then 0.0 else tapping_wl /. float_of_int n_ffs);
    tapping_wl;
    signal_wl;
    total_wl = tapping_wl +. signal_wl;
    clock_mw;
    signal_mw;
    total_mw = clock_mw +. signal_mw;
    max_load_ff = assignment.Rc_assign.Assign.max_load;
  }

(* stage-5 objective: weighted sum of tapping and signal wirelength *)
let cost_of cfg snap = snap.signal_wl +. (cfg.tapping_weight *. snap.tapping_wl)

(* same objective read directly off the context, for stage-boundary
   deltas in the trace; undefined until placement + assignment exist *)
let current_objective ctx =
  match ctx.assignment with
  | None -> None
  | Some a ->
      if Array.length ctx.positions = 0 then None
      else
        Some
          (Rc_place.Wirelength.total ctx.netlist ctx.positions
          +. (ctx.cfg.tapping_weight *. a.Rc_assign.Assign.total_cost))

(* the stage-5 best-state-keeping rule: keep the cheapest snapshot's
   state; ties keep the earlier one *)
let remember ctx snap =
  let cost = cost_of ctx.cfg snap in
  match ctx.best with
  | Some b when b.best_cost <= cost -> ctx
  | _ ->
      {
        ctx with
        best =
          Some
            {
              best_cost = cost;
              best_positions = ctx.positions;
              best_skews = ctx.skews;
              best_assignment = assignment_exn ctx;
            };
      }
