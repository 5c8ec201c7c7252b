(** Gaussian elimination over {!Sparse} storage.

    Partial pivoting on the largest absolute entry of the column
    (selected among the stored nonzeros), rank decisions at a tolerance
    relative to the largest input entry, and every row operation walks
    only the stored entries.  The floating-point operations performed
    on nonzero entries are exactly those of a dense Gauss–Jordan sweep
    over the same matrix, and the entries the dense sweep merely copies
    (a zero in the pivot row contributes [x −. coeff ·. 0.0 = x]) are
    skipped, so the reduced matrix is bit-identical to the dense
    result up to the sign of zero entries.  The boxed dense reference
    in [test/oracles] pins that contract.  On the tomography incidence
    systems (≥95% zeros at paper scale) the stored work is a small
    fraction of the dense sweep. *)

(** Result of [rref]. *)
type rref = {
  reduced : Sparse.t;  (** the reduced row-echelon form *)
  pivot_cols : int list;  (** pivot column indices, in row order *)
  rank : int;
}

(** Default pivot tolerance ([1e-10]). *)
val default_tol : float

(** [rref ?tol a] computes the reduced row-echelon form of a copy of
    [a].  [tol] (default [1e-10]) is scaled by the largest absolute
    input entry (at least [1]); a pivot candidate at or below the
    scaled threshold counts as zero. *)
val rref : ?tol:float -> Sparse.t -> rref

(** [rank ?tol a] is the numerical rank. *)
val rank : ?tol:float -> Sparse.t -> int

(** [select_independent ?tol ~cols rows] marks the greedy in-order
    linearly independent subset of the 0/1 incidence rows [rows]
    (each an array of column indices over [cols] variables):
    [keep.(i)] is true iff row [i] is independent of rows [0..i-1] —
    exactly the rows an incremental rank test fed row by row would
    accept, computed as a single forward elimination in row space
    (no row pivoting, so the accepted set is order-determined).
    [tol] (default [1e-8], matching {!Nullspace}'s) bounds the residual
    entry magnitude treated as zero.  Used to batch Algorithm 1's
    seed phase into one elimination. *)
val select_independent :
  ?tol:float -> cols:int -> int array array -> bool array
