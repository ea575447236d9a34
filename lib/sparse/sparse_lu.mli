(** Sparse basis factorization for the simplex method.

    LP basis matrices in this library are extremely sparse (assignment
    columns carry two nonzeros, slacks one), so a general dense LU is
    wasteful. This module permutes the basis to block-triangular form by
    iterated column-singleton peeling — each peeled pivot incurs zero
    fill — and factors only the residual "bump" submatrix with
    {!Dense.lu_factor}. The basis is held in flat arrays (its columns,
    and its rows for the peeled back substitution); the bump is
    assembled once into a dense work array, factored there, and kept as
    sparse L and U factors, so a solve walks the peeled pivots' entries
    and the bump factors' nonzeros only.

    On the min-max assignment LPs the bump is most of the basis (s9234:
    113 of 151 rows on average) but its factors are about 96% zeros, so
    solves cost about their nonzeros; a factorization still costs the
    bump's square in pivot scans, row swaps and extraction. *)

type t
(** A factorization. It holds work vectors for the bump solves, so one
    factorization must not be solved from two domains at once. *)

val factor : m:int -> cols:(int array * float array) array -> t option
(** [factor ~m ~cols] factors the square matrix whose [j]-th column has
    nonzeros [cols.(j)] (parallel row-index/value arrays, no duplicate
    rows within a column). [None] when numerically singular.
    @raise Invalid_argument on shape violations. *)

val solve : t -> float array -> float array -> unit
(** [solve t b x] writes the solution of [B x = b] into [x]; [b] is
    not modified.
    @raise Invalid_argument on a size mismatch or when [x] is [b]. *)

val solve_transpose : t -> float array -> float array -> unit
(** [solve_transpose t d y] writes the solution of [Bᵀ y = d] into
    [y]; [d] is not modified.
    @raise Invalid_argument on a size mismatch or when [y] is [d]. *)

val bump_size : t -> int
(** Rows left to the dense factorization — instrumentation for tests and
    benchmarks. *)
