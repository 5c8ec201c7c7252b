(** Minimum-norm solves of 0/1 incidence systems by a sparse Cholesky
    factor of [G = A·Aᵀ].

    The equation systems {!Tomo.Algorithm1} selects have linearly
    independent rows, and between re-selections only their right-hand
    side changes.  For such an [A] (rows = equations, coefficient 1 at
    each listed variable) the minimum-norm solution of [A·x = b] is
    [x = Aᵀ·G⁻¹·b] with [G = A·Aᵀ] symmetric positive definite.  [factor]
    pays for [G]'s factorization once; every [solve] afterwards is two
    sparse triangular solves and one [Aᵀ] product (a gather over a
    transpose of [A] in elimination order, kept with the factor), exact
    up to rounding rather than up to an iteration tolerance.

    [G]'s entry [(i, k)] is the number of variables rows [i] and [k]
    share, so [G] is as sparse as the row-overlap graph.  Rows are
    eliminated in exact minimum-degree order (ties to the lowest row
    index), which keeps the fill of [L] small and makes the factor a
    deterministic function of the rows: two factorizations of the same
    rows are bitwise equal.

    {b Dense columns.}  A variable in [count ≥ 2·√m] of the [m] rows (a
    hub) makes its rows a dense clique of [G].  Such columns are split
    out: [L] factors [M = A_s·A_sᵀ] of the rows without them, and they
    come back as a rank-[q] correction [G = L·Lᵀ + U·S·Uᵀ], solved by
    Sherman–Morrison–Woodbury through a [q × q] core (E. D. Andersen,
    ACM TOMS 22(3), 1996).  Leaving a hub out can leave a row dependent
    in [A_s] — two rows that differ only in hubs, or a row of hubs
    only.  Its pivot is not dropped but raised by [δ = |row_s|] (1 for a
    row of hubs only), and [−δ·e_r·e_rᵀ] joins the correction.  A
    system with no dense column factors and solves exactly as without
    the split.

    A pivot at or below [1e-10] times its row's own diagonal entry
    [|row|] means the row is (numerically) a combination of rows
    eliminated before it — a duplicated row, say.  Such a row is
    dropped: its column of [L] is zero, its equation is left out of the
    solve, and it is counted ({!dropped}); nothing raises, and no square
    root of a non-positive number is taken.  Dependent rows make [G]
    singular, and with it the Woodbury core (an LU pivot at or below
    [1e-10] times the largest entry of its column): the factor then
    falls back to [L·Lᵀ = G] with no correction and drops them.

    A factor is immutable once built and [solve] allocates its own work
    vectors, so any number of domains may solve against one factor at
    once.

    Observability (via {!Tomo_obs.Metrics}): counters
    [sparse_chol_factorizations], [sparse_chol_dropped_rows] and
    [sparse_chol_modified_pivots]; histograms [sparse_chol_l_nnz]
    (stored entries of [L], diagonal included), [sparse_chol_pivot_ratio]
    ({!pivot_ratio}) and [sparse_chol_dense_cols] ({!dense_cols}).  The
    [sparse_chol.factor] span carries [rows], [l_nnz], [dense_cols] and
    [v_nnz], the stored entries of the correction [L⁻¹·U]. *)

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
    [L] among kept, unmodified pivots ([1.0] when there is none): without
    a split, a cheap lower bound on [√cond(A·Aᵀ)]. *)
val pivot_ratio : t -> float

(** Dense columns split out of the factor ([0] when [L] factors
    [A·Aᵀ] itself). *)
val dense_cols : t -> int
