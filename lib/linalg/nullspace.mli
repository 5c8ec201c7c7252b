(** The null space of Algorithm 1's system and the paper's incremental
    update (Algorithm 2).

    Algorithm 1 of the paper grows an equation system one row at a time
    and must know, after each addition, whether the candidate row
    increased the rank — equivalently, whether it shrank the null space.
    Recomputing a null-space basis from scratch on every iteration would
    be cubically expensive; Algorithm 2 instead projects the current basis
    against the new row in [O(n·p)].  Every row the tomography systems
    produce is a 0/1 incidence row, held as the array of its column
    indices.  The basis lives in one place, the {!tracker}: the batched
    seed elimination ({!of_incidence}) writes it there, each accepted
    row updates it in place ({!add_incidence}), and the identifiable
    variables are read off it ({!determined}). *)

(** {1 In-place tracker}

    Algorithm 2 as the paper states it returns a fresh [nvars × (p-1)]
    matrix per accepted row: given [N] spanning the null space of [R]
    and a row [r] with [r · N ≠ 0], it pivots on a column [j] of [N]
    and projects the others,
    [N' = (I − N_j · (r·N_j)⁻¹ · r) · N_{others}]; a row with
    [r · N = 0] is dependent and leaves [N] unchanged.  The tracker
    pivots on the column maximizing [|r · N_j|] (the paper uses the
    first; pivoting is numerically safer and spans the same space).
    Algorithm 1 accepts hundreds of rows per selection, so the basis
    lives as [p] column vectors, an accepted row eliminates in place
    (zero allocation), and the per-variable non-zero count the selection
    loop sorts by (its Hamming weight) is maintained incrementally
    during the same elimination pass.  The functional form stays in
    [test/oracles] as the bitwise reference: a tracker fed row by row
    performs its floating-point operations in the same order and yields
    the same basis bit for bit. *)

type tracker

(** {2 Witness prefilter}

    A candidate row [r] is dependent iff [r · N = 0]; testing that
    exactly costs [O(nnz(r) · p)].  The tracker additionally maintains
    [k] witness vectors [u_c = N · g_c] for seeded random coefficient
    vectors [g_c]: because [r · u_c = (r · N) · g_c], a dependent row
    has every witness dot at rounding-noise scale, and each dot is a
    plain sum of [nnz(r)] floats.  When all [k] dots are within the
    witness tolerance ([tol · 1e-4], well below the noise a
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

(** [tracker ?tol ?witness_k n] starts from the identity basis: the
    null space of the empty system over [n] variables.  [tol] (default
    [1e-8]) is the rank tolerance of the pivot test and of
    {!row_weight}.  [witness_k] sets the number of witnesses (default
    2, clamped to 0..16; [0] is the exact-test reference the parity
    properties use).  The witness-dot rejection threshold is
    [tol · 1e-4]. *)
val tracker : ?tol:float -> ?witness_k:int -> int -> tracker

(** [of_incidence ?tol ?witness_k ~rows ~cols idxs] is a tracker whose
    basis spans the null space of the 0/1 incidence system with [rows]
    rows over [cols] variables ([idxs.(i)] lists row [i]'s columns,
    checked by {!Sparse.incidence_row}), read off one Gauss–Jordan
    elimination — the batched seed phase of Algorithm 1.  Pivoting
    takes the largest absolute entry of the column (the earliest row on
    a tie); a pivot at or below [tol] counts as zero, and [tol] is also
    the tracker's rank tolerance.  Basis vector [k] sets the [k]-th
    free column to 1 and each pivot variable to minus its reduced entry
    in that column.  [rows = 0] yields the identity basis ({!tracker});
    a trivial null space yields [0] columns.  The basis is
    bit-identical, zero signs included, to the sorted-merge sparse
    reference in [test/oracles], whose floating-point operations the
    elimination performs in the same order; the work of each pivot is
    proportional to the rows holding its column.  The columns are
    written straight into the tracker's block, and the weights and
    witnesses are those {!of_columns} computes from the same columns.
    @raise Invalid_argument when [idxs] does not have [rows] rows, or
    as {!Sparse.incidence_row} does. *)
val of_incidence :
  ?tol:float -> ?witness_k:int -> rows:int -> cols:int -> int array array ->
  tracker

(** [of_columns ?tol ?witness_k ~nvars cols] adopts [cols] (one array of
    [nvars] floats per basis column) as the starting basis and
    initializes each witness [u_c] to [N · g_c], summed over ascending
    columns from [+0.0].
    @raise Invalid_argument on a column whose length is not [nvars]. *)
val of_columns :
  ?tol:float -> ?witness_k:int -> nvars:int -> float array array -> tracker

(** [columns t] copies the current basis out, one fresh array of
    [nvars] floats per column, in column order. *)
val columns : tracker -> float array array

(** [determined ?tol t] marks the variables the selected system
    determines: flag [i] is true iff entry [i] of every basis column is
    at most [tol] (default [1e-6]) in absolute value, i.e. the unit
    vector [eᵢ] lies (numerically) in the row space.  One pass over the
    basis.  This is not [row_weight t i = 0]: the weight counts entries
    above the tracker's own tolerance ([1e-8] by default), so an entry
    between the two tolerances sets a weight but leaves the flag
    true. *)
val determined : ?tol:float -> tracker -> bool array

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

(** [add_incidence t idxs] applies Algorithm 2 in place for the
    incidence row with coefficient 1 at each index of [idxs].  [true] if
    the row was independent (nullity shrank by one), [false] if it was
    rejected as dependent.  The dependence test costs [O(|idxs| · p)].
    @raise Invalid_argument on an index outside [\[0, nvars)]. *)
val add_incidence : tracker -> int array -> bool
