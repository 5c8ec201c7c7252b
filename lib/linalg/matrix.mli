(** Dense row-major matrices over [float].

    This is the numeric substrate for the tomography equation systems:
    0/1 incidence matrices of path sets vs. correlation subsets, their
    null spaces, and the least-squares solves that recover log
    good-probabilities.  Storage is a single unboxed [float array] in
    row-major order (see the {e Flat-memory access} section below), so
    row traversals stream contiguous memory and kernels can take O(1)
    aliasing row views instead of copying. *)

type t

(** [make rows cols x] is a [rows × cols] matrix filled with [x]. *)
val make : int -> int -> float -> t

(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** [identity n] is the [n × n] identity. *)
val identity : int -> t

(** [of_rows rows] builds a matrix from row vectors.
    @raise Invalid_argument if rows have unequal lengths or there are no
    rows; the message carries a [file:line:] prefix naming the rejection
    site (the same shape as the {!Observations_io} loader errors). *)
val of_rows : float array array -> t

(** [to_rows m] is the matrix as an array of fresh row arrays. *)
val to_rows : t -> float array array

val rows : t -> int
val cols : t -> int

(** [get m i j] / [set m i j x]: bounds-checked element access. *)
val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

(** [unsafe_get m i j] / [unsafe_set m i j x]: element access with no
    bounds check, for inner-loop kernels whose indices are validated
    once outside the loop (e.g. {!Nullspace}).  Out-of-range indices are
    undefined behaviour. *)
val unsafe_get : t -> int -> int -> float

val unsafe_set : t -> int -> int -> float -> unit

(** [copy m] is a deep copy. *)
val copy : t -> t

(** {2 Flat-memory access}

    Storage is one unboxed [float array] in row-major order with stride
    [cols m]: entry [(i, j)] lives at index [i * cols m + j] of
    {!buffer}.  A row view is therefore just an offset into the shared
    buffer — O(1) to obtain, never copied, and {e aliasing}: writes
    through the buffer are visible in the matrix and vice versa.
    Kernels that hold a view across calls must not interleave it with
    operations that reallocate (none of the in-place operations do). *)

(** [buffer m] is the underlying flat storage (aliasing, not a copy). *)
val buffer : t -> float array

(** [stride m] is the row stride of {!buffer}, equal to [cols m]. *)
val stride : t -> int

(** [row_base m i] is the index of entry [(i, 0)] in {!buffer}. *)
val row_base : t -> int -> int

(** [row_view m i] is [(buffer m, row_base m i)]: an O(1) aliasing view
    of row [i].  Mutations through the returned buffer are visible in
    [m]; use {!row} for a fresh copy. *)
val row_view : t -> int -> float array * int

(** [swap_rows m i j] swaps two rows in place. *)
val swap_rows : t -> int -> int -> unit

(** [row m i] is a fresh copy of row [i]. *)
val row : t -> int -> float array

(** [col m j] is a fresh copy of column [j]. *)
val col : t -> int -> float array

(** [transpose m] is a fresh transpose. *)
val transpose : t -> t

(** [mul a b] is the matrix product.  @raise Invalid_argument on inner
    dimension mismatch. *)
val mul : t -> t -> t

(** [mul_vec m v] is [m · v] as a fresh array. *)
val mul_vec : t -> float array -> float array

(** [vec_mul v m] is [vᵀ · m] as a fresh array. *)
val vec_mul : float array -> t -> float array

(** [max_abs m] is the largest absolute entry (0 for empty matrices). *)
val max_abs : t -> float

(** [equal_approx ~tol a b] is true iff dimensions match and entries agree
    within [tol]. *)
val equal_approx : tol:float -> t -> t -> bool

(** [swap_cols m j k] swaps two columns in place. *)
val swap_cols : t -> int -> int -> unit

(** [drop_col m j] is a fresh matrix without column [j]. *)
val drop_col : t -> int -> t
