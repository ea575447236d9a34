(* The six stage implementations of the paper's Fig. 3 flow, as
   pluggable Flow_stage values.  Slots with more than one implementation
   (placement, assignment, cost-driven scheduling, incremental
   placement) expose each variant as its own stage value; the
   placement, assignment and incremental slots also have an `*_of`
   selector that picks the config's default.  Ablation and Experiments
   swap variants by building a custom Flow.plan instead of branching on
   behavior flags inside the driver loop. *)

open Rc_rotary

let site = 10.0 (* legalization site pitch, um *)

(* stage 4's prespecified slack M, as a fraction of stage 2's M* *)
let slack_fraction = 0.5

(* stage 5 declares convergence when the cost improves by less than
   this fraction *)
let convergence_tol = 0.002

(* ---- stage 1: initial placement -------------------------------------- *)

let placement_global =
  Flow_stage.make ~name:"placement" ~variant:"qplace" ~category:Flow_trace.Placer
    ~inputs:[ "netlist"; "chip" ] ~outputs:[ "positions" ]
    (fun ctx ->
      let global = Rc_place.Qplace.initial ctx.Flow_ctx.netlist ~chip:ctx.Flow_ctx.chip in
      { ctx with Flow_ctx.positions = global.Rc_place.Qplace.positions })

let placement_detailed =
  Flow_stage.make ~name:"placement" ~variant:"qplace+detail" ~category:Flow_trace.Placer
    ~inputs:[ "netlist"; "chip" ] ~outputs:[ "positions" ]
    (fun ctx ->
      let netlist = ctx.Flow_ctx.netlist and chip = ctx.Flow_ctx.chip in
      let global = Rc_place.Qplace.initial netlist ~chip in
      let refined =
        fst
          (Rc_place.Detail.refine ~max_passes:ctx.Flow_ctx.cfg.Flow_ctx.detail_passes netlist
             ~chip ~site global.Rc_place.Qplace.positions)
      in
      { ctx with Flow_ctx.positions = refined })

let placement_of (cfg : Flow_ctx.config) =
  if cfg.Flow_ctx.detail_passes > 0 then placement_detailed else placement_global

(* ---- stage 2: max-slack skew scheduling ------------------------------- *)

let max_slack_scheduling =
  Flow_stage.make ~name:"max-slack scheduling" ~variant:"graph" ~category:Flow_trace.Optimizer
    ~inputs:[ "positions" ] ~outputs:[ "skews"; "slack"; "stage4_slack"; "n_pairs" ]
    (fun ctx ->
      let tech = ctx.Flow_ctx.cfg.Flow_ctx.tech in
      let problem = Flow_ctx.skew_problem_of_sta tech ctx.Flow_ctx.netlist (Flow_ctx.sta ctx) in
      match Rc_skew.Max_slack.solve_graph problem with
      | None -> failwith "Flow.run: max-slack scheduling infeasible"
      | Some schedule ->
          let slack_star = schedule.Rc_skew.Max_slack.slack in
          let stage4_slack =
            if Float.is_finite slack_star then slack_fraction *. Float.max slack_star 0.0
            else 0.0
          in
          let n_pairs = Rc_skew.Skew_problem.n_pairs problem in
          {
            ctx with
            Flow_ctx.skews = schedule.Rc_skew.Max_slack.skews;
            slack = slack_star;
            stage4_slack;
            n_pairs;
            note = Printf.sprintf "M* %.2f ps over %d pairs" slack_star n_pairs;
          })

(* ---- stage 3: flip-flop-to-ring assignment ---------------------------- *)

let assignment_netflow =
  Flow_stage.make ~name:"assignment" ~variant:"netflow" ~category:Flow_trace.Optimizer
    ~inputs:[ "positions"; "skews"; "rings" ] ~outputs:[ "assignment" ]
    (fun ctx ->
      let cfg = ctx.Flow_ctx.cfg in
      let capacities =
        Ring_array.default_capacities ctx.Flow_ctx.rings
          ~n_ffs:(Array.length ctx.Flow_ctx.ffs)
          ~slack:cfg.Flow_ctx.capacity_slack
      in
      let a =
        Rc_assign.Assign.by_netflow ~candidates:cfg.Flow_ctx.candidates ~capacities
          ~cache:(Flow_cache.assign_cache ctx.Flow_ctx.caches)
          cfg.Flow_ctx.tech ctx.Flow_ctx.rings
          ~ff_positions:(Flow_ctx.ff_positions ctx) ~targets:ctx.Flow_ctx.skews
      in
      { ctx with Flow_ctx.assignment = Some a })

let assignment_ilp =
  Flow_stage.make ~name:"assignment" ~variant:"ilp" ~category:Flow_trace.Optimizer
    ~inputs:[ "positions"; "skews"; "rings" ] ~outputs:[ "assignment"; "ilp_stats" ]
    (fun ctx ->
      let cfg = ctx.Flow_ctx.cfg in
      let a, stats =
        Rc_assign.Assign.by_ilp ~candidates:cfg.Flow_ctx.candidates
          ~cache:(Flow_cache.assign_cache ctx.Flow_ctx.caches)
          cfg.Flow_ctx.tech ctx.Flow_ctx.rings
          ~ff_positions:(Flow_ctx.ff_positions ctx) ~targets:ctx.Flow_ctx.skews
      in
      { ctx with Flow_ctx.assignment = Some a; ilp_stats = Some stats })

let assignment_of = function
  | Flow_ctx.Netflow -> assignment_netflow
  | Flow_ctx.Ilp -> assignment_ilp

(* ---- stage 4: cost-driven skew scheduling ----------------------------- *)

let cost_driven solver ~variant =
  Flow_stage.make ~name:"cost-driven scheduling" ~variant ~category:Flow_trace.Optimizer
    ~inputs:[ "positions"; "skews"; "assignment"; "stage4_slack" ] ~outputs:[ "skews" ]
    (fun ctx ->
      let tech = ctx.Flow_ctx.cfg.Flow_ctx.tech in
      let problem = Flow_ctx.skew_problem_of_sta tech ctx.Flow_ctx.netlist (Flow_ctx.sta ctx) in
      let anchors =
        Flow_ctx.anchors_of_assignment tech ctx.Flow_ctx.rings (Flow_ctx.assignment_exn ctx)
          ~ff_positions:(Flow_ctx.ff_positions ctx) ~skews:ctx.Flow_ctx.skews
      in
      let slack = ctx.Flow_ctx.stage4_slack in
      match solver problem ~slack ~anchors with
      | Some (r : Rc_skew.Cost_driven.result) ->
          (* polish the extreme-point schedule: pull every target as
             close to its anchor as the constraints allow *)
          {
            ctx with
            Flow_ctx.skews =
              Rc_skew.Cost_driven.refine_toward_anchors problem ~slack ~anchors
                ~skews:r.Rc_skew.Cost_driven.skews;
          }
      | None -> { ctx with Flow_ctx.note = "infeasible; schedule kept" })

let cost_driven_minmax =
  cost_driven
    (fun problem ~slack ~anchors ->
      Rc_skew.Cost_driven.solve_minmax_graph problem ~slack ~anchors)
    ~variant:"min-max graph"

let cost_driven_weighted =
  cost_driven
    (fun problem ~slack ~anchors ->
      Rc_skew.Cost_driven.solve_weighted_mcf problem ~slack ~anchors)
    ~variant:"weighted MCF"

(* ---- stage 5: evaluation --------------------------------------------- *)

let evaluation =
  Flow_stage.make ~name:"evaluation" ~variant:"weighted objective"
    ~category:Flow_trace.Optimizer
    ~inputs:[ "positions"; "assignment" ]
    ~outputs:[ "history"; "best"; "current_cost"; "converged" ]
    (fun ctx ->
      let snap = Flow_ctx.take_snapshot ctx ~iteration:ctx.Flow_ctx.iteration in
      let cost = Flow_ctx.cost_of snap in
      let ctx = Flow_ctx.remember ctx snap in
      let ctx = { ctx with Flow_ctx.history = snap :: ctx.Flow_ctx.history } in
      if ctx.Flow_ctx.iteration = 0 then
        { ctx with Flow_ctx.current_cost = cost; note = "base case" }
      else
        let improvement =
          (ctx.Flow_ctx.current_cost -. cost) /. Float.max ctx.Flow_ctx.current_cost 1.0
        in
        let converged = improvement < convergence_tol && ctx.Flow_ctx.iteration > 1 in
        {
          ctx with
          Flow_ctx.current_cost = Float.min ctx.Flow_ctx.current_cost cost;
          converged = ctx.Flow_ctx.converged || converged;
          note =
            Printf.sprintf "cost %+.2f%%%s" (-100.0 *. improvement)
              (if converged then " -> converged" else "");
        })

(* ---- stage 6: incremental placement ----------------------------------- *)

let pseudo_nets ctx weight =
  let assignment = Flow_ctx.assignment_exn ctx in
  Array.to_list
    (Array.mapi
       (fun i cell ->
         {
           Rc_place.Qplace.cell;
           anchor = assignment.Rc_assign.Assign.taps.(i).Tapping.point;
           weight;
         })
       ctx.Flow_ctx.ffs)

let pseudo_weight_at (cfg : Flow_ctx.config) ~iteration =
  cfg.Flow_ctx.pseudo_weight
  *. (cfg.Flow_ctx.pseudo_growth ** float_of_int (iteration - 1))

let incremental_qplace =
  Flow_stage.make ~name:"incremental placement" ~variant:"pseudo-net qplace"
    ~category:Flow_trace.Placer ~advance:true
    ~inputs:[ "positions"; "assignment" ] ~outputs:[ "positions" ]
    (fun ctx ->
      let cfg = ctx.Flow_ctx.cfg in
      let weight = pseudo_weight_at cfg ~iteration:ctx.Flow_ctx.iteration in
      let pseudo = pseudo_nets ctx weight in
      let netlist = ctx.Flow_ctx.netlist and chip = ctx.Flow_ctx.chip in
      let inc =
        Rc_place.Qplace.incremental
          ~lap:(Flow_cache.laplacian ctx.Flow_ctx.caches netlist ~chip)
          netlist ~chip ~prev:ctx.Flow_ctx.positions ~pseudo
      in
      Flow_cache.note_displacement ctx.Flow_ctx.caches ~prev:ctx.Flow_ctx.positions
        ~next:inc.Rc_place.Qplace.positions;
      {
        ctx with
        Flow_ctx.positions = inc.Rc_place.Qplace.positions;
        note =
          Printf.sprintf "pseudo weight %.3f, %d cells moved" weight
            (Flow_cache.dirty_cells ctx.Flow_ctx.caches);
      })

let incremental_relocate =
  Flow_stage.make ~name:"incremental placement" ~variant:"relocate+heal"
    ~category:Flow_trace.Placer ~advance:true
    ~inputs:[ "positions"; "assignment" ] ~outputs:[ "positions" ]
    (fun ctx ->
      let cfg = ctx.Flow_ctx.cfg in
      let netlist = ctx.Flow_ctx.netlist and chip = ctx.Flow_ctx.chip in
      let weight = pseudo_weight_at cfg ~iteration:ctx.Flow_ctx.iteration in
      let pseudo = pseudo_nets ctx weight in
      (* minimal disturbance: step flip-flops toward their taps and heal
         the logic around them with flip-flops frozen, preserving the
         refined placement's quality *)
      let moved =
        Rc_place.Qplace.relocate netlist ~chip ~site ~prev:ctx.Flow_ctx.positions ~pseudo
      in
      let healed =
        fst
          (Rc_place.Detail.refine ~max_passes:cfg.Flow_ctx.detail_passes
             ~frozen:(Rc_netlist.Netlist.is_ff netlist) netlist ~chip ~site moved)
      in
      Flow_cache.note_displacement ctx.Flow_ctx.caches ~prev:ctx.Flow_ctx.positions
        ~next:healed;
      {
        ctx with
        Flow_ctx.positions = healed;
        note =
          Printf.sprintf "pseudo weight %.3f, %d cells moved" weight
            (Flow_cache.dirty_cells ctx.Flow_ctx.caches);
      })

let incremental_of (cfg : Flow_ctx.config) =
  if cfg.Flow_ctx.detail_passes > 0 then incremental_relocate else incremental_qplace

(* ---- epilogue: best-state restore ------------------------------------- *)

(* Driver-owned (not part of the swappable plan): evaluate the state
   after the last movement + re-assignment, then ship the minimum-cost
   snapshot stage 5 ever saw.  Named "evaluation" because it is the
   final run of that stage's bookkeeping. *)
let finalize =
  Flow_stage.make ~name:"evaluation" ~variant:"best-state restore"
    ~category:Flow_trace.Optimizer
    ~inputs:[ "positions"; "assignment"; "best"; "history" ]
    ~outputs:[ "positions"; "skews"; "assignment"; "history" ]
    (fun ctx ->
      let last = Flow_ctx.take_snapshot ctx ~iteration:ctx.Flow_ctx.iteration in
      let ctx = Flow_ctx.remember ctx last in
      let b = Flow_ctx.best_exn ctx in
      let ctx =
        {
          ctx with
          Flow_ctx.positions = b.Flow_ctx.best_positions;
          skews = b.Flow_ctx.best_skews;
          assignment = Some b.Flow_ctx.best_assignment;
        }
      in
      let final = Flow_ctx.take_snapshot ctx ~iteration:ctx.Flow_ctx.iteration in
      {
        ctx with
        Flow_ctx.history = final :: ctx.Flow_ctx.history;
        note = Printf.sprintf "shipped min-cost snapshot (%.0f um)" b.Flow_ctx.best_cost;
      })
