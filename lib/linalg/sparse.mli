(** Sparse row-compressed matrices over [float].

    The incidence systems driving the tomography pipeline are ≥95% zeros
    at paper scale: each equation touches the handful of
    correlation-subset variables its path set induces, out of hundreds.
    This module stores each row as parallel [(col, value)] arrays sorted
    by column with an explicit live-prefix length (per-row nnz), so the
    elimination kernels ({!Sparse_gauss}) touch only stored entries.

    Invariants: within a row, columns are strictly increasing over the
    live prefix and stored values are never exactly [0.0] (an entry that
    cancels to zero is dropped, matching what the dense kernels compute
    for it).  All operations preserve these invariants. *)

type t

(** [create rows cols] is an all-zero matrix (every row empty). *)
val create : int -> int -> t

(** [of_matrix m] stores the entries of [m] that are not exactly [0.0]. *)
val of_matrix : Matrix.t -> t

(** [to_matrix a] is the dense round-trip. *)
val to_matrix : t -> Matrix.t

(** [of_incidence ~rows ~cols idxs] builds the 0/1 incidence matrix whose
    row [i] has coefficient [1.0] at each index of [idxs.(i)].  Indices
    may be unsorted but must be distinct and in range.
    @raise Invalid_argument on an out-of-range index. *)
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

(** [iter_row a i f] applies [f col value] over the stored entries of row
    [i] in increasing column order. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [probe_mono a i j] is [get a i j] for elimination-kernel loops whose
    probed column only ever advances: each row resumes the scan from a
    cursor, making the probe amortized O(1).  Contract: per row,
    successive calls must use non-decreasing [j] (any in-place mutation
    of the row resets its cursor and re-establishes the invariant
    lazily).  No bounds checks. *)
val probe_mono : t -> int -> int -> float

(** [row_view a i] is [(cols, vals, nnz)]: the row's live arrays, of
    which the first [nnz] entries are the stored row.  Shared with the
    matrix, not copied — callers must not mutate.  For inner-loop
    kernels ({!Cgls}) whose indices are validated once outside the
    loop. *)
val row_view : t -> int -> int array * float array * int

(** {1 Frozen flat CSR snapshot}

    Read-only kernels that sweep an unchanging system many times (CGLS
    runs hundreds of A·v / Aᵀ·w passes per solve) want the classic flat
    CSR layout: every stored column and value packed into two contiguous
    unboxed arrays, rows delimited by [row_ptr].  The snapshot is
    decoupled from the mutable matrix — later mutations of [t] do not
    show through. *)
type csr = private {
  csr_rows : int;
  csr_cols : int;
  row_ptr : int array;  (** length [csr_rows + 1]; row [i] occupies
                            [row_ptr.(i) .. row_ptr.(i+1) - 1] *)
  col_idx : int array;  (** row-major column indices, per-row ascending *)
  values : float array;  (** parallel to [col_idx] *)
}

(** [to_csr a] snapshots [a] into flat CSR form.  Per-row entry order is
    preserved, so kernels that switch from {!row_view} loops to the flat
    arrays perform the identical floating-point operation sequence. *)
val to_csr : t -> csr

(** [swap_rows a i j] exchanges two rows in place, O(1). *)
val swap_rows : t -> int -> int -> unit

(** [scale_row a i s] multiplies row [i] by [s] in place (entries that
    underflow to exactly [0.0] are dropped). *)
val scale_row : t -> int -> float -> unit

(** [div_row a i s] divides row [i] by [s] in place — the pivot
    normalisation step.  Kept distinct from [scale_row (1/s)] because
    [x /. s] and [x *. (1 /. s)] differ in the last ulp, and the sparse
    kernel must reproduce the dense kernel's division bit for bit. *)
val div_row : t -> int -> float -> unit

(** [sub_scaled_row a ~dst ~src ~coeff] performs the elimination step
    [row_dst ← row_dst − coeff · row_src] in place, merging the two
    structures.  The arithmetic on stored entries is exactly the dense
    kernel's [x −. (coeff ·. y)], so results are bit-identical to the
    dense path (entries the dense code leaves untouched are zeros on both
    sides).  The merge runs through a per-matrix scratch buffer recycled
    by pointer swap, so steady-state elimination allocates nothing. *)
val sub_scaled_row : t -> dst:int -> src:int -> coeff:float -> unit

(** [drop_col_entries a j ~from_row] removes the column-[j] entry of every
    row [i ≥ from_row] — the sparse analogue of the dense kernel zeroing
    a numerically dead pivot column. *)
val drop_col_entries : t -> int -> from_row:int -> unit

(** [pp] prints stored entries as [(i, j) = v] lines (debugging aid). *)
val pp : Format.formatter -> t -> unit
