(** Small dense linear algebra: row-major matrices and LU factorization
    with partial pivoting. Sized for simplex basis matrices (a few
    thousand rows), not for BLAS-scale work. *)

type mat
(** Mutable dense matrix. *)

val create : int -> int -> mat
(** Zero matrix of the given shape. *)

val set : mat -> int -> int -> float -> unit

type lu
(** An LU factorization [P A = L U]. *)

val lu_factor : mat -> lu option
(** Factor a square matrix; [None] when (numerically) singular. The
    input matrix is not modified. *)

val lu_solve : lu -> float array -> float array
(** Solve [A x = b]. *)

val lu_solve_transpose : lu -> float array -> float array
(** Solve [Aᵀ x = b] — needed for simplex pricing (dual values). *)
