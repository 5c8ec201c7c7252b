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

(** [solve ~cols rows b] solves [min ‖A·x − b‖₂] for the 0/1 incidence
    matrix [A] whose row [i] has coefficient [1.0] at each index of
    [rows.(i)], over [cols] variables.  Indices may be unsorted but must
    be distinct and in range; each row is summed in ascending column
    order.  Iterates until the normal-equation residual norm falls below
    [1e-12] times its initial value, or for at most [4 · cols + 100]
    iterations.
    @raise Invalid_argument on an out-of-range or duplicate index, or
    when [b] has not one entry per row. *)
val solve : cols:int -> int array array -> float array -> float array
