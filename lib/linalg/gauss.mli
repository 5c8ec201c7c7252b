(** Gaussian elimination over dense matrices: reduced row-echelon form
    and rank.

    Pivoting is partial (largest absolute entry in the column) and rank
    decisions use a tolerance relative to the largest entry encountered,
    which is appropriate for the 0/1 incidence matrices produced by the
    tomography equation builder.  Incidence rows held as index arrays
    eliminate through {!Sparse_gauss} instead, which performs the same
    floating-point operations on the stored entries. *)

(** Result of [rref]. *)
type rref = {
  reduced : Matrix.t;  (** the reduced row-echelon form *)
  pivot_cols : int list;  (** pivot column indices, in row order *)
  rank : int;
}

(** Default pivot tolerance ([1e-10]), shared with
    {!Sparse_gauss.rref}. *)
val default_tol : float

(** [rref ?tol m] computes the reduced row-echelon form of a copy of
    [m] with the dense kernel.  [tol] (default [1e-10]) is the relative
    threshold below which a pivot candidate is treated as zero. *)
val rref : ?tol:float -> Matrix.t -> rref

(** [rank ?tol m] is the numerical rank. *)
val rank : ?tol:float -> Matrix.t -> int
