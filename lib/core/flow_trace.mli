(** Structured per-stage trace of a flow run.

    One {!event} is recorded per stage execution.  The legacy
    [cpu_flow_s]/[cpu_placer_s] split of {!Flow.outcome} is derived from
    the trace by summing per {!category}, so the per-stage breakdown and
    the reported totals cannot disagree. *)

type category =
  | Placer  (** initial + incremental placement (the old [cpu_placer_s]) *)
  | Optimizer  (** scheduling, assignment, evaluation (the old [cpu_flow_s]) *)

type event = {
  arm : string;
      (** experiment arm (e.g. ["s9234/netflow"]) the run belongs to;
          [""] for runs outside a suite *)
  stage : string;  (** canonical stage name, one of the six *)
  variant : string;  (** implementation plugged into that slot *)
  category : category;
  iteration : int;  (** 0 = prologue, 1..k = loop, k+1 = epilogue *)
  wall_s : float;
  pool_s : float;
      (** the part of [wall_s] the stage's domain spent inside pool
          primitives that fanned work out ({!Rc_par.Pool.fanout_wall_s});
          [wall_s -. pool_s] ran on that one domain *)
  cost_delta : float option;
      (** change of the stage-5 objective across the stage; [None] while
          the objective is undefined (no assignment yet) *)
  note : string;  (** stage-reported decision, e.g. convergence verdict *)
  metrics : Rc_obs.Metrics.snapshot;
      (** solver-metric delta across the stage; [[]] when the registry
          is disabled.  Exact in sequential runs; approximate inside
          parallel suite arms, where concurrent stages share the global
          registry. *)
}

type t

val empty : t
val record : t -> event -> t
val events : t -> event list
(** Chronological. *)

val total_wall : ?category:category -> t -> float
(** Sum of wall times, optionally restricted to one category. *)

val stage_names : t -> string list
(** Distinct canonical stage names, in first-appearance order. *)

val render : ?title:string -> t -> Rc_obs.Report.table
(** Per-event table: one row per stage execution, chronological, with
    its wall and pool time; [dCost] is [nan] (rendered ["-"]) while the
    objective is undefined. *)

val summary : ?title:string -> t -> Rc_obs.Report.table
(** Aggregate table: one row per (stage, variant) with call count,
    total wall time, the part inside pool fan-outs, the serial share
    (the rest, as a percentage of the total), mean wall time, and
    summed objective movement. *)
