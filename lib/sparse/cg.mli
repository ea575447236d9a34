(** Jacobi-preconditioned conjugate gradient for symmetric positive
    definite systems — the inner solver of quadratic placement. *)

type outcome = {
  x : float array;  (** The (approximate) solution. *)
  iterations : int;
  residual_norm : float;  (** Final 2-norm of [b - A x]. *)
  converged : bool;
}

type workspace
(** Reusable scratch buffers (residual, preconditioned residual, search
    direction, [A p], inverse diagonal, iterate, rhs) for systems of one
    fixed size, held as flat float64 Bigarrays streamed by the {!Vec} C
    kernels.  Quadratic placement solves many same-size systems back to
    back; passing a workspace removes the per-solve vector allocations
    without changing a single bit of the result. *)

val workspace : int -> workspace
(** A workspace for [n]-dimensional systems. *)

val solve :
  ?ws:workspace ->
  ?x0:float array ->
  Csr.t ->
  float array ->
  outcome
(** [solve a b] iterates until the relative residual drops below 1e-7
    or [4 * n] iterations ran. [x0]
    warm-starts the iteration (defaults to the zero vector). [ws]
    provides scratch buffers (default: freshly allocated); the returned
    solution is always a fresh array, so a workspace may be reused for
    the next solve immediately — but never by two concurrent solves.
    @raise Invalid_argument on dimension mismatch, non-square [a], or a
    workspace of the wrong size. *)
