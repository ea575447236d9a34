(** The paper's Section-V flip-flop-to-ring assignment network (Fig. 4):
    a source feeding one unit per flip-flop, candidate arcs carrying the
    tapping cost, and ring arcs capped by ring capacity [U_j]. Solved
    optimally by min-cost flow. *)

type candidate = { item : int; bin : int; cost : float }
(** One admissible (flip-flop, ring) pair with its tapping cost. *)

type result = {
  assignment : int array;  (** [assignment.(i)] is the bin of item [i], or -1 if unassigned. *)
  total_cost : float;  (** Sum of chosen candidate costs. *)
  assigned : int;  (** Number of items that received a bin. *)
}

val solve :
  n_items:int -> n_bins:int -> capacities:int array -> candidate list -> result
(** Assign each item to exactly one bin through its candidate arcs,
    minimizing total cost subject to per-bin capacities. Items whose
    candidates are all saturated stay unassigned (the caller widens the
    candidate set — the paper adds arcs only between nearby pairs).
    @raise Invalid_argument on shape mismatches or out-of-range
    candidates. *)

(** {2 Cached solving across placement iterations}

    A {!solver} keeps the candidate list of its last solve and the
    result. A list identical to that one — same (item, bin, cost)
    triples in the same order — replays the cached result
    ([netflow.assignment.replays]); this is what the flow epilogue's
    re-assignment hits. Any other list runs {!solve} and becomes the
    cached one ([netflow.assignment.scratch_solves]). Either way the
    result is the one {!solve} returns for the list, bit for bit. *)

type solver

val make_solver : n_items:int -> n_bins:int -> capacities:int array -> solver
(** A reusable solver for a fixed item/bin universe. Capacities are
    captured at creation time. *)

val solve_with : solver -> candidate list -> result
(** Replay the cached result or solve cold, as above. The returned
    arrays are fresh copies, never aliases of solver state.
    @raise Invalid_argument as {!solve}. *)
