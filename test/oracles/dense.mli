(** Dense matrix helpers for the oracles and the tests, built on
    {!Matrix.get} / {!Matrix.set}: products, transposes, and
    conversions to and from rows and columns, which only checking
    results needs. *)

(** [of_rows rows] builds a matrix from row vectors.
    @raise Invalid_argument if rows have unequal lengths or there are no
    rows; the message carries a [file:line:] prefix naming the rejection
    site (the same shape as the [Observations_io] loader errors). *)
val of_rows : float array array -> Matrix.t

(** [to_rows m] is the matrix as an array of fresh row arrays. *)
val to_rows : Matrix.t -> float array array

(** [copy m] is a deep copy. *)
val copy : Matrix.t -> Matrix.t

(** [col m j] is a fresh copy of column [j]. *)
val col : Matrix.t -> int -> float array

(** [columns m] is the matrix as an array of fresh column arrays: the
    layout {!Tomo_linalg.Nullspace.of_columns} takes. *)
val columns : Matrix.t -> float array array

(** [of_columns ~rows cs] is the [rows × Array.length cs] matrix whose
    column [j] is [cs.(j)] (the layout {!Tomo_linalg.Nullspace.columns}
    returns).  @raise Invalid_argument on a column of another length. *)
val of_columns : rows:int -> float array array -> Matrix.t

(** [transpose m] is a fresh transpose. *)
val transpose : Matrix.t -> Matrix.t

(** [mul a b] is the matrix product.  @raise Invalid_argument on inner
    dimension mismatch. *)
val mul : Matrix.t -> Matrix.t -> Matrix.t

(** [mul_vec m v] is [m · v] as a fresh array. *)
val mul_vec : Matrix.t -> float array -> float array

(** [vec_mul v m] is [vᵀ · m] as a fresh array. *)
val vec_mul : float array -> Matrix.t -> float array

(** [max_abs m] is the largest absolute entry (0 for empty matrices). *)
val max_abs : Matrix.t -> float

(** [equal_approx ~tol a b] is true iff dimensions match and entries
    agree within [tol]. *)
val equal_approx : tol:float -> Matrix.t -> Matrix.t -> bool

(** [swap_cols m j k] swaps two columns in place. *)
val swap_cols : Matrix.t -> int -> int -> unit
