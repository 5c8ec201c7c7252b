(** Minimum-norm solves of 0/1 incidence systems by a sparse Cholesky
    factor of [G = A·Aᵀ].

    The equation systems {!Tomo.Algorithm1} selects have linearly
    independent rows, and between re-selections only their right-hand
    side changes.  For such an [A] (rows = equations, coefficient 1 at
    each listed variable) the minimum-norm solution of [A·x = b] is
    [x = Aᵀ·G⁻¹·b] with [G = A·Aᵀ] symmetric positive definite.  [factor]
    pays for [G]'s Cholesky factor once; every [solve] afterwards is two
    sparse triangular solves and one [Aᵀ] product, exact up to rounding
    rather than up to an iteration tolerance.

    [G]'s entry [(i, k)] is the number of variables rows [i] and [k]
    share, so [G] is as sparse as the row-overlap graph.  Rows are
    eliminated in exact minimum-degree order (ties to the lowest row
    index), which keeps the fill of [L] small and makes the factor a
    deterministic function of the rows: two factorizations of the same
    rows are bitwise equal.

    A pivot at or below [1e-10] times its row's own diagonal entry
    [|row|] means the row is (numerically) a combination of rows
    eliminated before it — a duplicated row, say.  Such a row is
    dropped: its column of [L] is zero, its equation is left out of the
    solve, and it is counted ({!dropped}); nothing raises, and no square
    root of a non-positive number is taken.

    A factor is immutable once built and [solve] allocates its own work
    vector, so any number of domains may solve against one factor at
    once.

    Observability (via {!Tomo_obs.Metrics}): counters
    [sparse_chol_factorizations] and [sparse_chol_dropped_rows];
    histograms [sparse_chol_l_nnz] (stored entries of [L], diagonal
    included) and [sparse_chol_pivot_ratio] ({!pivot_ratio}). *)

type t

(** [factor ~cols rows] factors the incidence system whose row [i] has
    coefficient 1 at each (distinct) index of [rows.(i)], over [cols]
    variables.
    @raise Invalid_argument on an index outside [0, cols). *)
val factor : cols:int -> int array array -> t

(** [solve t b] is the minimum-norm [x] (length [cols]) with
    [A·x = b] on every row the factorization kept.  Allocates; never
    mutates [t].
    @raise Invalid_argument unless [b] has one entry per row. *)
val solve : t -> float array -> float array

(** Rows dropped as numerically dependent on earlier-eliminated rows. *)
val dropped : t -> int

(** Stored entries of [L], diagonal included. *)
val l_nnz : t -> int

(** [pivot_ratio t] is the largest over the smallest diagonal entry of
    [L] among kept rows ([1.0] when none is kept): a cheap lower bound
    on [√cond(A·Aᵀ)]. *)
val pivot_ratio : t -> float
