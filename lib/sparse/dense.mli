(** Small dense linear algebra: row-major matrices and LU factorization
    with partial pivoting. Sized for simplex basis bumps (a few hundred
    rows), not for BLAS-scale work.

    The factorization runs on the dense matrix but keeps only the
    nonzeros of its factors: L by columns and U by rows in flat arrays,
    U's diagonal apart. An elimination step updates only the entries
    whose multiplier and pivot-row entry are both nonzero, and the
    solves walk stored entries only, so a factor that is mostly zeros
    costs its nonzeros per solve. Every entry and every solution
    component takes its terms in the order of the textbook dense loops;
    a skipped term is a product with an exact zero, so the results
    equal the dense ones under IEEE [=] (only the sign of a zero can
    differ). *)

type mat
(** Mutable dense matrix. *)

val create : int -> int -> mat
(** Zero matrix of the given shape. *)

val set : mat -> int -> int -> float -> unit

type lu
(** An LU factorization [P A = L U]. It holds a work vector for
    {!lu_solve_transpose}, so one factorization must not be solved from
    two domains at once. *)

val lu_factor : mat -> lu option
(** Factor a square matrix; [None] when a pivot column's largest
    magnitude is below 1e-12. The matrix is the factorization's work
    array: its contents are overwritten. *)

val lu_solve : lu -> float array -> float array -> unit
(** [lu_solve f b x] writes the solution of [A x = b] into [x]; [b] is
    not modified.
    @raise Invalid_argument on a size mismatch or when [x] is [b]. *)

val lu_solve_transpose : lu -> float array -> float array -> unit
(** [lu_solve_transpose f b x] writes the solution of [Aᵀ x = b] into
    [x] — the solve behind simplex pricing (dual values); [b] is not
    modified. *)
