(** Compressed sparse row matrices.

    Built once from coordinate triplets (duplicates are summed, which is
    exactly what assembling a quadratic-placement Laplacian needs), then
    used for fast mat-vec products inside conjugate gradient.

    Storage is flat Bigarray (int row pointers / column indices, float64
    values) so the {!spmv} C kernel streams the structure without
    boxing; the [float array] entry points remain for callers outside
    the hot path and produce bit-identical results. *)

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

val get : t -> int -> int -> float
(** Value at (i, j); 0. when the entry is structurally absent.
    Logarithmic in the row's nonzero count. *)

val mul_vec : t -> float array -> float array
(** [mul_vec a x] is [a * x]. @raise Invalid_argument on size mismatch. *)

val mul_vec_into : t -> float array -> float array -> unit
(** Like {!mul_vec} but writes into a caller-provided output vector. *)

val spmv : t -> Vec.t -> Vec.t -> unit
(** [spmv a x y] sets [y <- a * x] through the C kernel.  Row sums
    accumulate left to right, exactly like {!mul_vec_into} — the two
    entry points are bit-identical.  @raise Invalid_argument on size
    mismatch. *)

val diag_into_vec : t -> Vec.t -> unit
(** {!diagonal_into} writing into a {!Vec.t} (square matrices only). *)

val diagonal : t -> float array
(** The main diagonal as a dense vector (square matrices only). *)

val diagonal_into : t -> float array -> unit
(** Like {!diagonal} but writes into a caller-provided vector.
    @raise Invalid_argument on size mismatch or a non-square matrix. *)

val transpose : t -> t

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** Iterate the nonzeros [(col, value)] of one row in column order. *)
