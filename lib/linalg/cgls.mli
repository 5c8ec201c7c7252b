(** Conjugate-gradient least squares for sparse 0/1 systems.

    The tomography equation systems have rows that are incidence vectors:
    each row is the set of correlation-subset variables appearing in one
    equation, with all coefficients equal to 1.  CGLS solves
    [min ‖A·x − b‖₂] for such systems from their sparse rows alone,
    never forming [AᵀA];
    started from [x = 0] it converges to the *minimum-norm* least-squares
    solution, whose identifiable coordinates (decided separately via
    {!Nullspace}) equal those of every other minimizer.

    The four CG work vectors are preallocated per domain and reused
    across calls (only the returned solution is freshly allocated), so
    repeated solves — one per probability computation in the experiment
    harness — do not churn the allocator, and concurrent solves from
    tomo_par workers each use their own scratch. *)

(** [solve_sparse ~a ~b ?max_iter ?tol ()] solves [min ‖a·x − b‖₂] for
    a sparse system [a] ({!Sparse.t}; the tomography pools build it with
    {!Sparse.of_incidence}, all coefficients [1.0]).  Iterates until the
    normal-equation residual norm falls below [tol] (relative to its
    initial value, default [1e-12]) or [max_iter] iterations (default
    [4 · cols a + 100]).
    @raise Invalid_argument on size mismatch. *)
val solve_sparse :
  a:Sparse.t ->
  b:float array ->
  ?max_iter:int ->
  ?tol:float ->
  unit ->
  float array
