(** Typed context threaded through the six-stage flow.

    A stage is a function [t -> t] (see {!Flow_stage}); everything
    stages read or write lives here.  The record is deliberately fully
    exposed: custom stages are plain functions over it. *)

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
  detail_passes : int;
}
(** See {!Flow.config} for per-field documentation. *)

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
(** See {!Flow.snapshot} for per-field documentation. *)

(** Best state seen by stage 5, restored when the flow ships. *)
type best = {
  best_cost : float;
  best_positions : Rc_geom.Point.t array;
  best_skews : float array;
  best_assignment : Rc_assign.Assign.t;
}

type t = {
  cfg : config;
  arm : string;
      (** experiment-arm tag stamped onto trace events; [""] outside a suite *)
  netlist : Rc_netlist.Netlist.t;
  chip : Rc_geom.Rect.t;
  rings : Rc_rotary.Ring_array.t;
  ffs : int array;  (** cell index of flip-flop i *)
  positions : Rc_geom.Point.t array;  (** per cell; empty until stage 1 *)
  skews : float array;  (** per flip-flop; empty until stage 2 *)
  assignment : Rc_assign.Assign.t option;  (** [None] until stage 3 *)
  slack : float;  (** stage-2 maximum slack M* *)
  stage4_slack : float;  (** prespecified slack for cost-driven scheduling *)
  n_pairs : int;
  ilp_stats : Rc_assign.Assign.ilp_stats option;
  iteration : int;  (** 0 = prologue; incremented by the loop driver *)
  history : snapshot list;  (** newest first *)
  best : best option;
  current_cost : float;  (** convergence reference (monotone min) *)
  converged : bool;
  trace : Flow_trace.t;
  note : string;  (** set by a stage, moved into the trace by the driver *)
  caches : Flow_cache.t;
      (** cross-iteration recomputation state (incremental STA session,
          candidate-tap cache, cached assignment solver, stage 6's
          Laplacian, dirty-set tracker): the only path stages 2-4 and 6
          take *)
}

val create : ?arm:string -> config -> Rc_netlist.Netlist.t -> t
(** Fresh context: rings built from the benchmark's grid, nothing placed
    or scheduled yet. [arm] tags every trace event of the run (default
    [""]). *)

val assignment_exn : t -> Rc_assign.Assign.t
(** @raise Invalid_argument before stage 3 has run. *)

val best_exn : t -> best
(** @raise Invalid_argument before stage 5 has run. *)

val ff_positions : t -> Rc_geom.Point.t array
(** Current position of every flip-flop, in flip-flop index order. *)

val sta : t -> Rc_timing.Sta.t
(** The timing analysis of stages 2 and 4 at the current positions,
    through the context's incremental STA session
    ({!Flow_cache.sta_session}); bit-identical to
    {!Rc_timing.Sta.analyze}. *)

val warm_sta : t -> unit
(** Prime the STA session of a restored context from its placement (a
    no-op before stage 1), so its first stage updates the timing
    incrementally.  The one re-warm of {!Flow.context_of_outcome} and
    [Rc_serve.Checkpoint.load]. *)

val ff_index : Rc_netlist.Netlist.t -> int array * (int -> int)
(** See {!Flow.ff_index}. *)

val skew_problem_of_sta :
  Rc_tech.Tech.t -> Rc_netlist.Netlist.t -> Rc_timing.Sta.t -> Rc_skew.Skew_problem.t
(** See {!Flow.skew_problem_of_sta}. *)

val anchors_of_assignment :
  Rc_tech.Tech.t ->
  Rc_rotary.Ring_array.t ->
  Rc_assign.Assign.t ->
  ff_positions:Rc_geom.Point.t array ->
  skews:float array ->
  Rc_skew.Cost_driven.anchor array
(** See {!Flow.anchors_of_assignment}. *)

val take_snapshot : t -> iteration:int -> snapshot
(** Evaluate the current placement + assignment into a snapshot. *)

val cost_of : snapshot -> float
(** The stage-5 objective: signal WL + 8 × tapping WL, the paper's
    weighted sum of tapping and placement cost. *)

val current_objective : t -> float option
(** Same objective read directly off the context; [None] until placement
    and assignment both exist. *)

val remember : t -> snapshot -> t
(** The stage-5 best-state-keeping rule: keep the cheapest snapshot's
    state; ties keep the earlier one. *)
