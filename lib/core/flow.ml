(* The paper's Fig. 3 six-stage flow, expressed as a composition of
   first-class stages (Flow_stage) over a typed context (Flow_ctx):

     1. initial placement            (qplace | qplace+detail)
     2. max-slack skew scheduling
     3. flip-flop-to-ring assignment (netflow | ilp)
     4. cost-driven skew scheduling  (min-max graph | weighted MCF)
     5. evaluation (best-state keeping + convergence decision)
     6. pseudo-net incremental placement (qplace | relocate+heal)

   Stages 1-3 run once, stages 4-6 iterate until the evaluation stage
   reports convergence or the iteration budget is exhausted, then the
   driver re-runs the assignment on the final placement and enforces the
   stage-5 invariant: the shipped state is the minimum-cost snapshot
   ever evaluated.  Which variant fills each swappable slot is chosen
   once, up front, in `plan_of_config` — the driver loop itself contains
   no behavior branching, and callers (Ablation, Experiments) may swap
   any slot by passing a custom plan.  Every stage execution is recorded
   in a structured Flow_trace carried in the outcome. *)

type mode = Flow_ctx.mode = Netflow | Ilp

type config = Flow_ctx.config = {
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

let default_config ?(mode = Netflow) bench =
  {
    tech = Rc_tech.Tech.default;
    bench;
    mode;
    candidates = 6;
    capacity_slack = 3.0;
    max_iterations = 5;
    pseudo_weight = 0.08;
    pseudo_growth = 1.8;
    stability = 0.004;
    slack_fraction = 0.5;
    use_weighted_skew = false;
    convergence_tol = 0.002;
    detail_passes = 0;
    tapping_weight = 8.0;
    incremental = true;
  }

(* Beyond-paper configuration: detailed-placement refinement after the
   global placement, and a direct relocate-and-heal stage 6 instead of
   pseudo-net springs in a quadratic re-solve. *)
let improved_config ?mode bench =
  { (default_config ?mode bench) with detail_passes = 3; pseudo_weight = 0.35 }

type snapshot = Flow_ctx.snapshot = {
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

type outcome = {
  cfg : config;
  netlist : Rc_netlist.Netlist.t;
  rings : Rc_rotary.Ring_array.t;
  base : snapshot;
  final : snapshot;
  history : snapshot list;
  positions : Rc_geom.Point.t array;
  assignment : Rc_assign.Assign.t;
  skews : float array;
  slack : float;
  stage4_slack : float;
  n_pairs : int;
  ilp_stats : Rc_assign.Assign.ilp_stats option;
  trace : Flow_trace.t;
  cpu_flow_s : float;  (* derived: trace total over Optimizer stages *)
  cpu_placer_s : float;  (* derived: trace total over Placer stages *)
}

(* context helpers re-exported for Experiments/Ablation/bench kernels *)
let ff_index = Flow_ctx.ff_index
let skew_problem_of_sta = Flow_ctx.skew_problem_of_sta
let anchors_of_assignment = Flow_ctx.anchors_of_assignment

(* ---- the stage plan --------------------------------------------------- *)

(* one stage value per slot of the six-stage flow; swap any slot to run
   a variant flow without touching the driver *)
type plan = {
  place : Flow_stage.t;  (* stage 1 *)
  schedule : Flow_stage.t;  (* stage 2 *)
  assign : Flow_stage.t;  (* stage 3 (also re-run per iteration and at the end) *)
  cost_schedule : Flow_stage.t;  (* stage 4 *)
  evaluate : Flow_stage.t;  (* stage 5 *)
  replace : Flow_stage.t;  (* stage 6 *)
}

let plan_of_config cfg =
  {
    place = Flow_stages.placement_of cfg;
    schedule = Flow_stages.max_slack_scheduling;
    assign = Flow_stages.assignment_of cfg.mode;
    cost_schedule = Flow_stages.cost_driven_of cfg;
    evaluate = Flow_stages.evaluation;
    replace = Flow_stages.incremental_of cfg;
  }

let stages_of_plan p =
  [ p.place; p.schedule; p.assign; p.cost_schedule; p.evaluate; p.replace ]

let describe_plan p = List.map Flow_stage.describe (stages_of_plan p)

(* ---- the driver -------------------------------------------------------- *)

let outcome_of (ctx : Flow_ctx.t) =
  let history = List.rev ctx.Flow_ctx.history in
  let base = List.hd history in
  let final = List.hd ctx.Flow_ctx.history in
  {
    cfg = ctx.Flow_ctx.cfg;
    netlist = ctx.Flow_ctx.netlist;
    rings = ctx.Flow_ctx.rings;
    base;
    final;
    history;
    positions = ctx.Flow_ctx.positions;
    assignment = Flow_ctx.assignment_exn ctx;
    skews = ctx.Flow_ctx.skews;
    slack = ctx.Flow_ctx.slack;
    stage4_slack = ctx.Flow_ctx.stage4_slack;
    n_pairs = ctx.Flow_ctx.n_pairs;
    ilp_stats = ctx.Flow_ctx.ilp_stats;
    trace = ctx.Flow_ctx.trace;
    cpu_flow_s = Flow_trace.total_wall ~category:Flow_trace.Optimizer ctx.Flow_ctx.trace;
    cpu_placer_s = Flow_trace.total_wall ~category:Flow_trace.Placer ctx.Flow_ctx.trace;
  }

(* stage 4-6 iterations plus the epilogue, shared by a fresh run and a
   checkpoint resume: from an iteration-boundary context both paths are
   literally the same code, which is what makes resume bit-identical *)
let finish ?plan ?guard ?on_iteration (ctx : Flow_ctx.t) =
  let cfg = ctx.Flow_ctx.cfg in
  let plan = match plan with Some p -> p | None -> plan_of_config cfg in
  (* one batch region across the whole stage 4-6 loop and epilogue:
     every parallel kernel inside (CG solve pairs, candidate-tap
     batches, STA cone sweeps) publishes a sub-job to the same captive
     workers instead of waking the pool per call *)
  Rc_par.Pool.region (fun () ->
      let ctx =
        Flow_stage.run_loop ?guard ?on_iteration ~max_iterations:cfg.max_iterations
          [ plan.cost_schedule; plan.assign; plan.evaluate; plan.replace ]
          ctx
      in
      (* epilogue: re-assign on the final placement, then enforce the stage-5
         best-state-keeping invariant (ship the minimum-cost snapshot) *)
      let ctx = { ctx with Flow_ctx.iteration = ctx.Flow_ctx.iteration + 1 } in
      let ctx = Flow_stage.run_sequence ?guard [ plan.assign ] ctx in
      let ctx = Flow_stage.exec Flow_stages.finalize ctx in
      outcome_of ctx)

let run_on ?plan ?arm ?guard ?on_iteration cfg netlist =
  let plan = match plan with Some p -> p | None -> plan_of_config cfg in
  let ctx = Flow_ctx.create ?arm cfg netlist in
  (* prologue (iteration 0): place, schedule, assign, evaluate the base —
     one batch region, like the iteration loop in [finish] *)
  let ctx =
    Rc_par.Pool.region (fun () ->
        Flow_stage.run_sequence ?guard
          [ plan.place; plan.schedule; plan.assign; plan.evaluate ]
          ctx)
  in
  (* the prologue's end is iteration boundary 0: checkpointable too *)
  (match on_iteration with Some f -> f ctx | None -> ());
  finish ~plan ?guard ?on_iteration ctx

let resume_on ?plan ?guard ?on_iteration ctx = finish ?plan ?guard ?on_iteration ctx

let run ?plan ?arm ?guard ?on_iteration cfg =
  run_on ?plan ?arm ?guard ?on_iteration cfg
    (Bench_suite.netlist cfg.bench)

(* ---- the ECO edit engine ----------------------------------------------- *)

(* One engineering-change-order primitive against a held-open flow.
   Every edit is deterministic data: the stages re-run for a batch are
   a function of the edit *kinds* alone (never of cache state), so an
   edit sequence replayed onto a freshly built context runs exactly the
   same stage schedule — and because every incremental cache validates
   against exact inputs, the replay is bit-identical to the live
   session.  That is the subsystem's correctness anchor. *)
type edit =
  | Move_cells of (int * Rc_geom.Point.t) list
      (* (cell id, new position); positions are clamped to the chip *)
  | Shift_block of Rc_geom.Rect.t * float * float
      (* every cell inside the rectangle moves by (dx, dy) *)
  | Retarget_ff of int * int
      (* (flip-flop index, ring id): reassign one flip-flop's tap *)
  | Set_clock_period of float
      (* retune the rotary rings; rebuilds the ring array *)

type edit_report = {
  er_before : snapshot;  (* state the batch started from *)
  er_after : snapshot;  (* state after re-running the dirty stages *)
  er_stages : string list;  (* names of the stages the batch re-ran *)
  er_cells_moved : int;  (* distinct cells repositioned by the batch *)
  er_slack : float;  (* stage-2 maximum slack after the batch *)
}

let apply_edits ?plan ?guard (ctx : Flow_ctx.t) (edits : edit list) =
  let cfg = ctx.Flow_ctx.cfg in
  if Array.length ctx.Flow_ctx.positions = 0 then
    invalid_arg "Flow.apply_edits: context has no placement";
  let before =
    match ctx.Flow_ctx.history with
    | snap :: _ -> snap
    | [] -> Flow_ctx.take_snapshot ctx ~iteration:ctx.Flow_ctx.iteration
  in
  (* 1. fold the raw state mutations: position writes in edit order,
     the last period edit wins, retargets are queued for after the
     stage re-runs (so they patch the batch's *final* assignment) *)
  let positions = Array.copy ctx.Flow_ctx.positions in
  let n = Array.length positions in
  let moved = ref [] in
  let positions_edited = ref false in
  let new_period = ref None in
  let retargets = ref [] in
  let clamp p = Rc_geom.Rect.clamp_point ctx.Flow_ctx.chip p in
  List.iter
    (fun e ->
      match e with
      | Move_cells ms ->
          positions_edited := true;
          List.iter
            (fun (c, p) ->
              if c < 0 || c >= n then invalid_arg "Flow.apply_edits: cell out of range";
              positions.(c) <- clamp p;
              moved := c :: !moved)
            ms
      | Shift_block (r, dx, dy) ->
          positions_edited := true;
          for c = 0 to n - 1 do
            if Rc_geom.Rect.contains r positions.(c) then begin
              positions.(c) <-
                clamp
                  {
                    Rc_geom.Point.x = positions.(c).Rc_geom.Point.x +. dx;
                    y = positions.(c).Rc_geom.Point.y +. dy;
                  };
              moved := c :: !moved
            end
          done
      | Retarget_ff (ff, ring) -> retargets := (ff, ring) :: !retargets
      | Set_clock_period p ->
          if not (Float.is_finite p) || p <= 0.0 then
            invalid_arg "Flow.apply_edits: clock period must be positive";
          new_period := Some p)
    edits;
  let retargets = List.rev !retargets in
  let period_changed =
    match !new_period with
    | Some p -> p <> cfg.tech.Rc_tech.Tech.clock_period
    | None -> false
  in
  (* 2. a period change moves the anchors every cache is implicitly
     keyed against (ring geometry, timing constraints): rebuild the
     rings from the new tech and drop the caches wholesale *)
  let cfg, rings =
    if period_changed then begin
      let p = Option.get !new_period in
      let tech = { cfg.tech with Rc_tech.Tech.clock_period = p } in
      Flow_cache.reset ctx.Flow_ctx.caches;
      ( { cfg with tech },
        Rc_rotary.Ring_array.create ~period:p ~chip:ctx.Flow_ctx.chip
          ~grid:cfg.bench.Bench_suite.ring_grid () )
    end
    else (cfg, ctx.Flow_ctx.rings)
  in
  (* 3. targeted invalidation: mark the moved cones dirty explicitly
     (position compare would catch them too — this also covers a cell
     "moved" onto its own coordinates) and drop the retargeted
     flip-flops' cached taps.  Forced recomputation is bit-identical,
     so these are work hints, not correctness hooks. *)
  if cfg.incremental && not period_changed then begin
    if !moved <> [] then
      Rc_timing.Sta.invalidate_cells
        (Flow_cache.sta_session ctx.Flow_ctx.caches cfg.tech ctx.Flow_ctx.netlist)
        !moved;
    List.iter
      (fun (ff, _) ->
        Rc_assign.Assign.cache_invalidate (Flow_cache.assign_cache ctx.Flow_ctx.caches) ~ff)
      retargets
  end;
  (* 4. re-run only the stages whose inputs changed — chosen from the
     edit kinds alone.  A period change re-derives the skew baseline
     and re-assigns against the new rings before the cost-driven pass;
     a placement change replays one loop body (stage 4 then 3), the
     paper's own reconvergence step. *)
  let plan = match plan with Some p -> p | None -> plan_of_config cfg in
  let stages =
    (if period_changed then [ plan.schedule; plan.assign ] else [])
    @
    if !positions_edited || period_changed then [ plan.cost_schedule; plan.assign ]
    else []
  in
  let ctx = { ctx with Flow_ctx.cfg; rings; positions } in
  let ctx =
    if stages = [] then ctx
    else Rc_par.Pool.region (fun () -> Flow_stage.run_sequence ?guard stages ctx)
  in
  (* 5. retarget patches, applied to the batch's final assignment in
     edit order *)
  let ctx =
    List.fold_left
      (fun (ctx : Flow_ctx.t) (ff, ring) ->
        if ff < 0 || ff >= Array.length ctx.Flow_ctx.skews then
          invalid_arg "Flow.apply_edits: flip-flop out of range";
        let a =
          Rc_assign.Assign.retarget ctx.Flow_ctx.cfg.tech ctx.Flow_ctx.rings
            (Flow_ctx.assignment_exn ctx)
            ~ff_positions:(Flow_ctx.ff_positions ctx)
            ~ff ~ring ~target:ctx.Flow_ctx.skews.(ff)
        in
        { ctx with Flow_ctx.assignment = Some a })
      ctx retargets
  in
  (* 6. snapshot the result and advance the session's batch counter *)
  let it = ctx.Flow_ctx.iteration + 1 in
  let after = Flow_ctx.take_snapshot ctx ~iteration:it in
  let ctx = { ctx with Flow_ctx.iteration = it; history = after :: ctx.Flow_ctx.history } in
  let report =
    {
      er_before = before;
      er_after = after;
      er_stages = List.map (fun (s : Flow_stage.t) -> s.Flow_stage.name) stages;
      er_cells_moved = List.length (List.sort_uniq compare !moved);
      er_slack = ctx.Flow_ctx.slack;
    }
  in
  (ctx, report)

(* An edit-session context over a finished flow: the outcome's shipped
   state (the minimum-cost snapshot) becomes the session baseline, the
   iteration counter restarts at 0 (it counts applied edit batches from
   here), and the caches are fresh — [warm] primes the incremental STA
   session from the restored placement so the first edit does an
   incremental, not cold, timing update.  Two contexts built from
   equal outcomes are digest-equal by construction. *)
let context_of_outcome ?(arm = "") ?(warm = true) (o : outcome) =
  let ctx = Flow_ctx.create ~arm o.cfg o.netlist in
  let ctx =
    {
      ctx with
      Flow_ctx.positions = o.positions;
      skews = o.skews;
      assignment = Some o.assignment;
      slack = o.slack;
      stage4_slack = o.stage4_slack;
      n_pairs = o.n_pairs;
      ilp_stats = o.ilp_stats;
      iteration = 0;
      history = [ o.final ];
    }
  in
  if warm && o.cfg.incremental then
    ignore
      (Rc_timing.Sta.analyze_batch
         (Flow_cache.sta_session ctx.Flow_ctx.caches o.cfg.tech o.netlist)
         ~positions:o.positions);
  ctx
