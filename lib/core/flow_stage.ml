(* First-class flow stages and the driver that executes them.

   A stage is a named, categorized ctx -> ctx function with declared
   inputs/outputs (context fields it consumes/produces — documentation
   that is also surfaced by `describe`).  The driver `exec` times every
   execution and the part of it spent in pool fan-outs, measures how
   the stage moved the stage-5 objective, and appends a Flow_trace
   event; `run_loop` implements the stage 4-6
   iteration scheme: stop when the evaluation stage reports convergence
   or the iteration budget is exhausted, and skip advance-only stages
   (stage 6) when no further iteration will consume their output. *)

type t = {
  name : string;  (* canonical stage name, shared by all variants of a slot *)
  variant : string;  (* which implementation fills the slot *)
  category : Flow_trace.category;
  inputs : string list;  (* Flow_ctx fields consumed *)
  outputs : string list;  (* Flow_ctx fields produced/updated *)
  advance : bool;  (* only prepares the next iteration; skip when the loop ends *)
  run : Flow_ctx.t -> Flow_ctx.t;
}

let make ~name ~variant ~category ?(inputs = []) ?(outputs = []) ?(advance = false) run =
  { name; variant; category; inputs; outputs; advance; run }

let describe st =
  Printf.sprintf "%-24s [%s] %s -> %s" st.name st.variant
    (String.concat ", " st.inputs)
    (String.concat ", " st.outputs)

(* run one stage from [cost_before], the objective of [ctx]: time it,
   time its pool fan-outs, compute the objective after it, and record
   the trace event (consuming the stage's note).  Returns the objective
   after the stage too: it is the next stage's before-value, so each
   stage boundary's objective is computed once.  A stage that leaves
   every input of the objective physically as it was (the schedulers)
   leaves the objective too, so it is not folded again. *)
let exec_from cost_before st (ctx : Flow_ctx.t) =
  let metrics_before = Rc_obs.Metrics.snapshot () in
  let pool_before = Rc_par.Pool.fanout_wall_s () in
  let ctx', wall_s = Rc_util.Timer.time (fun () -> st.run ctx) in
  let pool_s = Rc_par.Pool.fanout_wall_s () -. pool_before in
  let cost_after =
    if
      ctx'.Flow_ctx.positions == ctx.Flow_ctx.positions
      && ctx'.Flow_ctx.assignment == ctx.Flow_ctx.assignment
      && ctx'.Flow_ctx.netlist == ctx.Flow_ctx.netlist
      && ctx'.Flow_ctx.cfg == ctx.Flow_ctx.cfg
    then cost_before
    else Flow_ctx.current_objective ctx'
  in
  let cost_delta =
    match (cost_before, cost_after) with
    | Some b, Some a -> Some (a -. b)
    | _ -> None
  in
  let metrics =
    if metrics_before = [] then []
    else
      Rc_obs.Metrics.diff ~before:metrics_before ~after:(Rc_obs.Metrics.snapshot ())
  in
  let event =
    {
      Flow_trace.arm = ctx'.Flow_ctx.arm;
      stage = st.name;
      variant = st.variant;
      category = st.category;
      iteration = ctx'.Flow_ctx.iteration;
      wall_s;
      pool_s;
      cost_delta;
      note = ctx'.Flow_ctx.note;
      metrics;
    }
  in
  ( { ctx' with Flow_ctx.trace = Flow_trace.record ctx'.Flow_ctx.trace event; note = "" },
    cost_after )

let exec st ctx = fst (exec_from (Flow_ctx.current_objective ctx) st ctx)

(* the guard hook is the flow's cooperative-cancellation point: it runs
   before every stage execution and aborts the run by raising (the
   serve scheduler raises its Cancelled exception here on deadline
   expiry or client cancellation) *)
let checked ?guard (ctx, cost) st =
  (match guard with Some g -> g ctx | None -> ());
  exec_from cost st ctx

let run_sequence ?guard stages ctx =
  fst (List.fold_left (checked ?guard) (ctx, Flow_ctx.current_objective ctx) stages)

let run_loop ?guard ?on_iteration ~max_iterations stages ctx =
  (* [cost] is the objective of [ctx]: a skipped stage leaves both as
     they are, and so does the iteration counter's bump *)
  let rec go (ctx : Flow_ctx.t) cost =
    if ctx.Flow_ctx.converged || ctx.Flow_ctx.iteration >= max_iterations then ctx
    else
      let ctx = { ctx with Flow_ctx.iteration = ctx.Flow_ctx.iteration + 1 } in
      let ctx, cost =
        List.fold_left
          (fun (((c : Flow_ctx.t), _) as acc) st ->
            if c.Flow_ctx.converged then acc
              (* evaluation decided this iteration is the last *)
            else if st.advance && c.Flow_ctx.iteration >= max_iterations then acc
              (* no next iteration to prepare *)
            else checked ?guard acc st)
          (ctx, cost) stages
      in
      (* iteration boundary: a consistent context a checkpoint hook may
         persist — resuming from here re-enters [go] exactly as an
         uninterrupted run would *)
      (match on_iteration with Some f -> f ctx | None -> ());
      go ctx cost
  in
  go ctx (Flow_ctx.current_objective ctx)
