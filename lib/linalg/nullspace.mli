(** Null-space bases and the paper's incremental update (Algorithm 2).

    Algorithm 1 of the paper grows an equation system one row at a time
    and must know, after each addition, whether the candidate row
    increased the rank — equivalently, whether it shrank the null space.
    Recomputing a null-space basis from scratch on every iteration would
    be cubically expensive; Algorithm 2 instead projects the current basis
    against the new row in [O(n·p)].  Both the from-scratch construction
    and the incremental update live here. *)

(** [basis ?tol m] is an [n × p] matrix whose columns span the null
    space of the dense [r × n] matrix [m] ([p] = nullity), read off the
    reduced form {!Gauss.rref} computes.  When the null space is trivial
    the result has [0] columns.  Incidence systems held as index arrays
    take {!basis_of_incidence} instead. *)
val basis : ?tol:float -> Matrix.t -> Matrix.t

(** [nullity ?tol m] is [cols (basis m)]. *)
val nullity : ?tol:float -> Matrix.t -> int

(** [in_row_space ?tol n i] decides whether the [i]-th coordinate is
    identifiable given a null-space basis [n]: true iff row [i] of [n] is
    (numerically) zero, i.e. the unit vector [eᵢ] lies in the row space of
    the original system. *)
val in_row_space : ?tol:float -> Matrix.t -> int -> bool

(** [reduces_rank ?tol n r] is true iff adding row [r] to the system whose
    null space is spanned by [n] would increase the system's rank, i.e.
    [‖r · N‖ > 0] (line 13 of Algorithm 1). *)
val reduces_rank : ?tol:float -> Matrix.t -> float array -> bool

(** [update ?tol n r] is the paper's Algorithm 2 (NullSpaceUpdate): given
    [n] ([n_vars × p]) spanning the null space of [R], returns a matrix
    spanning the null space of [R] with row [r] appended.

    If [r · N = 0] (the row is linearly dependent on the system), the
    basis is returned unchanged.  Otherwise one basis column is consumed:
    we pivot on the column [j] maximizing [|r · N_j|] (the paper uses the
    first column; pivoting is numerically safer and spans the same space)
    and project the remaining columns:
    [N' = (I − N_j · (r·N_j)⁻¹ · r) · N_{others}]. *)
val update : ?tol:float -> Matrix.t -> float array -> Matrix.t

(** [update_incidence ?tol n idxs] is {!update} specialized to an
    incidence row (coefficient 1 at each index of [idxs], 0 elsewhere) —
    the only row shape the tomography systems produce.  Returns [None]
    when the row is linearly dependent on the current system (the
    null space is unchanged), [Some n'] when it shrank it by one column.
    The dependence test costs [O(|idxs| · p)] instead of [O(n · p)]. *)
val update_incidence :
  ?tol:float -> Matrix.t -> int array -> Matrix.t option

(** [basis_of_incidence ?tol ~rows ~cols idxs] is the null-space basis
    of the 0/1 incidence system with [rows] rows over [cols] variables
    ([idxs.(i)] lists row [i]'s columns), eliminated in one
    {!Sparse_gauss.rref} pass instead of row-by-row updates — the
    batched seed-phase path of Algorithm 1.  [rows = 0] yields the
    identity basis. *)
val basis_of_incidence :
  ?tol:float -> rows:int -> cols:int -> int array array -> Matrix.t

(** {1 In-place tracker}

    The functional updates above allocate an [nvars × (p-1)] matrix per
    accepted row.  Algorithm 1 accepts hundreds of rows per selection,
    so its hot loop uses this stateful variant instead: the basis lives
    as [p] column vectors, an accepted row eliminates in place (zero
    allocation), and the per-variable non-zero count the selection loop
    sorts by (its Hamming weight) is maintained incrementally during the
    same elimination pass.  Both representations perform the identical
    sequence of floating-point operations, so a tracker fed row by row
    yields bitwise the same basis as folding {!update} /
    {!update_incidence}. *)

type tracker

(** {2 Witness prefilter}

    A candidate row [r] is dependent iff [r · N = 0]; testing that
    exactly costs [O(nnz(r) · p)].  The tracker additionally maintains
    [k] witness vectors [u_c = N · g_c] for seeded random coefficient
    vectors [g_c]: because [r · u_c = (r · N) · g_c], a dependent row
    has every witness dot at rounding-noise scale, and each dot is a
    plain sum of [nnz(r)] floats.  When all [k] dots are within the
    witness tolerance ([tol · 1e-4] by default, well below the noise a
    truly independent row produces), the row is rejected in
    [O(k · nnz(r))] without touching the basis; when any witness fires,
    the exact projection runs unchanged.  A dependent row therefore can
    never be falsely accepted — every acceptance is vetted by the exact
    test — and the accepted eliminations are bit-identical with the
    prefilter on or off, so a tracker at [witness_k = 0] and one at the
    default produce the same selections bit for bit (enforced by the
    qcheck parity battery).

    [k] is 2 unless a tracker is built with [?witness_k] ([0] disables
    the prefilter).  The witness coefficients are derived from seeded
    {!Tomo_util.Rng.split_int} streams keyed by the tracker dimension
    and witness index only, so decisions never depend on how many
    trackers the process created before. *)

(** [tracker ?tol ?witness_k ?witness_tol n] starts from the identity
    basis: the null space of the empty system over [n] variables.
    [witness_k] sets the number of witnesses (default 2, clamped to
    0..16; [0] is the exact-test reference the parity properties use);
    [witness_tol] overrides the witness-dot rejection threshold
    ([tol · 1e-4]). *)
val tracker : ?tol:float -> ?witness_k:int -> ?witness_tol:float -> int -> tracker

(** [tracker_of_matrix ?tol ?witness_k ?witness_tol m] adopts the
    columns of [m] ([nvars × p]) as the starting basis and initializes
    the witnesses to [m · g_c]. *)
val tracker_of_matrix :
  ?tol:float -> ?witness_k:int -> ?witness_tol:float -> Matrix.t -> tracker

(** Number of witness vectors this tracker maintains. *)
val witness_count : tracker -> int

(** [witness_defect t] is the largest absolute deviation of any
    maintained witness entry from a from-scratch recomputation
    [N · g_c] — the floating-point drift of the in-place updates.
    [O(k · nvars · p)]; intended for tests and diagnostics. *)
val witness_defect : tracker -> float

(** Current nullity [p]. *)
val dim : tracker -> int

(** [row_weight t i] is the number of basis columns whose [i]-th entry
    exceeds the tolerance — Algorithm 1's SortByHammingWeight key —
    maintained incrementally, O(1) to read. *)
val row_weight : tracker -> int -> int

(** [add_incidence t idxs] applies Algorithm 2 in place for an incidence
    row.  [true] if the row was independent (nullity shrank by one),
    [false] if it was rejected as dependent. *)
val add_incidence : tracker -> int array -> bool

(** [add_row t r] is {!add_incidence} for an arbitrary dense row. *)
val add_row : tracker -> float array -> bool

(** Snapshot the current basis as an [nvars × p] matrix. *)
val to_matrix : tracker -> Matrix.t
