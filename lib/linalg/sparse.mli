(** Sparse row-compressed matrices over [float].

    The incidence systems driving the tomography pipeline are ≥95% zeros
    at paper scale: each equation touches the handful of
    correlation-subset variables its path set induces, out of hundreds.
    This module stores each row as parallel [(col, value)] arrays sorted
    by column with an explicit live-prefix length (per-row nnz), so the
    elimination kernels ({!Sparse_gauss}) touch only stored entries.

    Invariants: within a row, columns are strictly increasing over the
    live prefix and stored values are never exactly [0.0] (an entry that
    cancels to zero is dropped, matching what the dense reference
    elimination in [test/oracles] computes for it).  All operations
    preserve these invariants. *)

type t

(** [create rows cols] is an all-zero matrix (every row empty). *)
val create : int -> int -> t

(** [incidence_row ~cols r] is the incidence row [r] with its indices
    in ascending order: [r] itself when it is already strictly
    ascending, otherwise a sorted copy ([r] is never modified).
    @raise Invalid_argument on an index outside [\[0, cols)] or a
    repeated index. *)
val incidence_row : cols:int -> int array -> int array

(** [of_incidence ~rows ~cols idxs] builds the 0/1 incidence matrix whose
    row [i] has coefficient [1.0] at each index of [idxs.(i)], each row
    checked and ordered by {!incidence_row}.
    @raise Invalid_argument as {!incidence_row} does, or when [idxs]
    does not have [rows] rows. *)
val of_incidence : rows:int -> cols:int -> int array array -> t

val rows : t -> int
val cols : t -> int

(** [copy a] is a deep copy. *)
val copy : t -> t

(** [get a i j] is the entry at [(i, j)] ([0.0] when unstored);
    bounds-checked, O(log row-nnz). *)
val get : t -> int -> int -> float

(** [row_nnz a i] is the number of stored entries of row [i]. *)
val row_nnz : t -> int -> int

(** [nnz a] is the total number of stored entries. *)
val nnz : t -> int

(** [density a] is [nnz / (rows · cols)] ([0.0] for empty shapes). *)
val density : t -> float

(** [max_abs a] is the largest absolute stored entry (0 when empty). *)
val max_abs : t -> float

(** [probe_mono a i j] is [get a i j] for elimination-kernel loops whose
    probed column only ever advances: each row resumes the scan from a
    cursor, making the probe amortized O(1).  Contract: per row,
    successive calls must use non-decreasing [j] (any in-place mutation
    of the row resets its cursor and re-establishes the invariant
    lazily).  No bounds checks. *)
val probe_mono : t -> int -> int -> float

(** [swap_rows a i j] exchanges two rows in place, O(1). *)
val swap_rows : t -> int -> int -> unit

(** [scale_row a i s] multiplies row [i] by [s] in place (entries that
    underflow to exactly [0.0] are dropped). *)
val scale_row : t -> int -> float -> unit

(** [div_row a i s] divides row [i] by [s] in place — the pivot
    normalisation step.  Kept distinct from [scale_row (1/s)] because
    [x /. s] and [x *. (1 /. s)] differ in the last ulp, and the sparse
    kernel must reproduce the dense reference's division bit for bit. *)
val div_row : t -> int -> float -> unit

(** [sub_scaled_row a ~dst ~src ~coeff] performs the elimination step
    [row_dst ← row_dst − coeff · row_src] in place, merging the two
    structures.  The arithmetic on stored entries is exactly the dense
    reference's [x −. (coeff ·. y)], so results are bit-identical to it
    (entries the dense code leaves untouched are zeros on both
    sides).  The merge runs through a per-matrix scratch buffer recycled
    by pointer swap, so steady-state elimination allocates nothing. *)
val sub_scaled_row : t -> dst:int -> src:int -> coeff:float -> unit

(** [drop_col_entries a j ~from_row] removes the column-[j] entry of every
    row [i ≥ from_row] — the sparse analogue of the dense reference
    zeroing a numerically dead pivot column. *)
val drop_col_entries : t -> int -> from_row:int -> unit
