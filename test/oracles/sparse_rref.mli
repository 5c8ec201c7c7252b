(** Gauss–Jordan elimination over sorted-merge sparse rows: the bitwise
    reference for the seed elimination in {!Nullspace.of_incidence}.

    Each row is stored as parallel [(col, value)] arrays sorted by
    column over a live prefix.  Within a row, columns are strictly
    increasing and stored values are never exactly [0.0]: an entry that
    cancels to zero is dropped, so it reads back as [+0.0].  Every
    operation keeps these invariants.

    {!rref} does partial pivoting on the largest absolute entry of the
    column (the earliest row wins a tie).  A pivot at or below [tol]
    times the largest absolute input entry (at least [1]) counts as
    zero.  Rows are normalised, then eliminated.  The floating-point
    operations on stored entries are those of the dense sweep in
    {!Gauss}, so the two agree on every entry up to the sign of a zero.
    {!Nullspace.of_incidence} promises this kernel's operations
    exactly, with zeros read as [+0.0], so its basis equals {!basis}
    bit for bit, zero signs included. *)

type t

(** [of_incidence ~rows ~cols idxs] builds the 0/1 incidence matrix
    whose row [i] has coefficient [1.0] at each index of [idxs.(i)],
    each row checked and ordered by {!Sparse.incidence_row}.
    @raise Invalid_argument as {!Sparse.incidence_row} does, or when
    [idxs] does not have [rows] rows. *)
val of_incidence : rows:int -> cols:int -> int array array -> t

val rows : t -> int
val cols : t -> int

(** [copy a] is a deep copy. *)
val copy : t -> t

(** [get a i j] is the entry at [(i, j)] ([0.0] when unstored);
    bounds-checked. *)
val get : t -> int -> int -> float

(** [row_nnz a i] is the number of stored entries of row [i]. *)
val row_nnz : t -> int -> int

(** [nnz a] is the total number of stored entries. *)
val nnz : t -> int

(** [density a] is [nnz / (rows · cols)] ([0.0] for empty shapes). *)
val density : t -> float

(** [swap_rows a i j] exchanges two rows in place. *)
val swap_rows : t -> int -> int -> unit

(** [scale_row a i s] multiplies row [i] by [s] in place (entries that
    underflow to exactly [0.0] are dropped). *)
val scale_row : t -> int -> float -> unit

(** [div_row a i s] divides row [i] by [s] in place: the pivot
    normalisation ([x /. s], which can differ from [x *. (1 /. s)] in
    the last ulp). *)
val div_row : t -> int -> float -> unit

(** [sub_scaled_row a ~dst ~src ~coeff] performs
    [row_dst ← row_dst − coeff · row_src] in place, merging the two
    structures: [x −. (coeff ·. y)] on shared columns and
    [0.0 −. (coeff ·. y)] where only [src] stores an entry. *)
val sub_scaled_row : t -> dst:int -> src:int -> coeff:float -> unit

(** [drop_col_entries a j ~from_row] removes the column-[j] entry of
    every row [i ≥ from_row]. *)
val drop_col_entries : t -> int -> from_row:int -> unit

(** Result of {!rref}. *)
type rref = {
  reduced : t;  (** the reduced row-echelon form *)
  pivot_cols : int list;  (** pivot column indices, in row order *)
  rank : int;
}

(** [rref ?tol a] reduces a copy of [a].  [tol] defaults to
    {!Gauss.default_tol}. *)
val rref : ?tol:float -> t -> rref

(** [basis ?tol ~rows ~cols idxs] is the [cols × nullity] null-space
    basis of the incidence system, read off {!rref}: [cols = 0] gives
    a [0 × 0] matrix and [rows = 0] the identity.  Basis vector [k]
    sets the [k]-th free column [fc] to [1] and each pivot variable to
    [-.(get reduced piv fc)], so an unstored entry reads as [-0.0]. *)
val basis : ?tol:float -> rows:int -> cols:int -> int array array -> Matrix.t
