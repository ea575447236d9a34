(** Compressed sparse row matrices.

    Built once from coordinate triplets (duplicates are summed, which is
    exactly what assembling a quadratic-placement Laplacian needs), then
    used for fast mat-vec products inside conjugate gradient.

    Storage is flat Bigarray (int row pointers / column indices, float64
    values) so the {!spmv} C kernel streams the structure without
    boxing. *)

type t

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Assemble from [(row, col, value)] triplets; duplicate coordinates
    are accumulated, exact zeros are kept out of the structure.
    @raise Invalid_argument on out-of-range indices or negative dims. *)

val of_entries :
  rows:int -> cols:int -> len:int -> int array -> int array -> float array -> t
(** [of_entries ~rows ~cols ~len ri ci vs] assembles from the first
    [len] slots of three parallel entry arrays — the million-entry
    counterpart of {!of_triplets} (no per-row tables, no boxed list).
    Two stable counting passes order the entry slots: by column,
    visiting the entries last to first, then by row.  Duplicates are
    thus summed in reverse entry order and exact-zero sums dropped,
    which is precisely how {!of_triplets} treats a list built by
    prepending the same entries, so switching a caller from one to the
    other is bit-identical.
    @raise Invalid_argument on out-of-range indices, negative dims or a
    bad [len]. *)

val with_diagonal : t -> float array -> t
(** [with_diagonal a d] is [a] with its main diagonal replaced by [d]
    (entries of [d] are stored as given, zeros included).  The sparsity
    pattern is shared with [a], only the values are copied — how a
    placement call re-weights one assembled Laplacian per spreading
    round.
    @raise Invalid_argument if [a] is not square, [d] has the wrong
    length or some diagonal entry of [a] is not stored. *)

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val spmv : t -> Vec.t -> Vec.t -> unit
(** [spmv a x y] sets [y <- a * x] through the C kernel.  Row sums
    accumulate left to right in column order.  @raise Invalid_argument
    on size mismatch. *)

val diag_into_vec : t -> Vec.t -> unit
(** The main diagonal, written into a {!Vec.t}; 0. where no diagonal
    entry is stored.  @raise Invalid_argument on size mismatch or a
    non-square matrix. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** Iterate the nonzeros [(col, value)] of one row in column order. *)
