(* Structured per-stage trace of a flow run.

   Every stage execution appends one event: which stage ran (canonical
   name + the variant actually plugged in), at which iteration, how long
   it took, and how it moved the stage-5 objective.  The trace replaces
   the old cpu_flow_s/cpu_placer_s ref pair: those totals are now
   derived by summing events per category, so the per-stage breakdown
   and the reported CPU split can never disagree. *)

(* the legacy CPU split: placement-type stages vs everything else
   (scheduling, assignment, evaluation) *)
type category = Placer | Optimizer

type event = {
  arm : string;  (* experiment arm ("circuit/mode") the run belongs to; "" outside a suite *)
  stage : string;  (* canonical stage name, one of six *)
  variant : string;  (* implementation plugged into that slot *)
  category : category;
  iteration : int;  (* 0 = prologue, 1..k = loop, k+1 = epilogue *)
  wall_s : float;
  pool_s : float;
      (* the part of [wall_s] the stage's domain spent inside pool
         primitives that fanned out; the rest ran on that domain alone *)
  cost_delta : float option;
      (* change of the stage-5 objective (signal WL + w * tapping WL)
         across the stage; None while the objective is not yet defined
         (before the first assignment exists) *)
  note : string;  (* stage-reported decision, e.g. convergence verdict *)
  metrics : Rc_obs.Metrics.snapshot;
      (* solver-metric delta across the stage ([] when the registry is
         disabled).  Per-stage attribution is exact in sequential runs;
         inside parallel suite arms concurrent stages share the global
         registry, so deltas are approximate there *)
}

type t = { rev_events : event list }

let empty = { rev_events = [] }
let record t event = { rev_events = event :: t.rev_events }
let events t = List.rev t.rev_events

let total_wall ?category t =
  List.fold_left
    (fun acc e ->
      match category with
      | Some c when c <> e.category -> acc
      | _ -> acc +. e.wall_s)
    0.0 t.rev_events

let stage_names t =
  (* distinct canonical names, in first-appearance order *)
  List.rev
    (List.fold_left
       (fun acc e -> if List.mem e.stage acc then acc else e.stage :: acc)
       [] (events t))

module R = Rc_obs.Report

let ms s = R.Float (s *. 1000.0, 3)

(* per-event table: one row per stage execution, chronological *)
let render ?(title = "Per-stage trace") t =
  {
    R.title;
    columns = [ "Iter"; "Stage"; "Variant"; "Wall (ms)"; "Pool (ms)"; "dCost (um)"; "Note" ];
    rows =
      List.map
        (fun e ->
          [
            R.Int e.iteration;
            R.Str e.stage;
            R.Str e.variant;
            ms e.wall_s;
            ms e.pool_s;
            R.Float (Option.value e.cost_delta ~default:nan, 0);
            R.Str e.note;
          ])
        (events t);
  }

(* aggregate table: one row per (stage, variant) with call count, total
   and mean wall time, the total inside pool fan-outs and the serial
   share (the rest of the wall, as a fraction of it), and the summed
   objective movement *)
let summary ?(title = "Per-stage summary") t =
  let keys =
    List.rev
      (List.fold_left
         (fun acc e ->
           let k = (e.stage, e.variant) in
           if List.mem k acc then acc else k :: acc)
         [] (events t))
  in
  let rows =
    List.map
      (fun (stage, variant) ->
        let es =
          List.filter (fun e -> e.stage = stage && e.variant = variant) (events t)
        in
        let calls = List.length es in
        let wall = List.fold_left (fun a e -> a +. e.wall_s) 0.0 es in
        let pool = List.fold_left (fun a e -> a +. e.pool_s) 0.0 es in
        let delta =
          List.fold_left
            (fun a e -> match e.cost_delta with Some d -> a +. d | None -> a)
            0.0 es
        in
        [
          R.Str stage;
          R.Str variant;
          R.Int calls;
          ms wall;
          ms pool;
          R.Pct (if wall > 0.0 then 100.0 *. (wall -. pool) /. wall else nan);
          ms (wall /. float_of_int (max calls 1));
          R.Float (delta, 0);
        ])
      keys
  in
  {
    R.title;
    columns =
      [ "Stage"; "Variant"; "Calls"; "Total (ms)"; "Pool (ms)"; "Serial"; "Mean (ms)";
        "Sum dCost (um)" ];
    rows;
  }
