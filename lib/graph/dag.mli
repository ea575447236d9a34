(** Topological order of a DAG, for static timing analysis. *)

val topological_order : Digraph.t -> int array option
(** Kahn's algorithm; [None] if the graph has a directed cycle. *)
