(** Linear-program model builder.

    Problems are stated as: minimize [cᵀx] subject to per-row linear
    constraints (≤ / ≥ / =) and per-variable bounds. Variables default
    to free (unbounded both ways) with zero objective coefficient;
    maximization is expressed by negating the objective. *)

type sense = Le | Ge | Eq

type t

val create : unit -> t

val add_var : ?lo:float -> ?hi:float -> ?obj:float -> t -> int
(** Add a variable and return its index. [lo] defaults to
    [neg_infinity], [hi] to [infinity], [obj] to 0.
    @raise Invalid_argument if [lo > hi]. *)

val set_bounds : t -> int -> lo:float -> hi:float -> unit

val add_row : t -> (int * float) list -> sense -> float -> int
(** [add_row t coeffs sense rhs] adds constraint
    [Σ coeff·var (sense) rhs] and returns the row index. Duplicate
    variable mentions in [coeffs] are summed.
    @raise Invalid_argument on out-of-range variable indices. *)

val n_vars : t -> int
val n_rows : t -> int

val var_lo : t -> int -> float
val var_hi : t -> int -> float
val var_obj : t -> int -> float

val iter_rows : t -> (int -> (int * float) list -> sense -> float -> unit) -> unit
(** Every row in index order, in its stored form: duplicate variable
    mentions summed, zero coefficients dropped, sorted by variable. *)
