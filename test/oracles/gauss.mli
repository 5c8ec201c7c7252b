(** Dense Gauss–Jordan elimination over boxed rows ([float array
    array]): the one dense reference the sparse kernels are checked
    against.

    {!Sparse_rref.rref} and {!Nullspace.of_incidence} promise
    the floating-point operations of this naive sweep on every stored
    entry: partial pivoting on the largest absolute entry of the column
    (the earliest row wins a tie), a pivot threshold of [tol] times the
    largest absolute input entry (at least [1]), and
    normalise-then-eliminate row order.  The tests compare them entry
    for entry; the sparse kernels cannot reproduce a dense [-0.0], so
    zero signs are the one allowed difference. *)

(** Result of [rref]. *)
type rref = {
  reduced : float array array;  (** the reduced row-echelon form *)
  pivot_cols : int list;  (** pivot column indices, in row order *)
  rank : int;
}

(** The default pivot tolerance, [1e-10]. *)
val default_tol : float

(** [rref ?tol ~cols rows] reduces a copy of the [cols]-column matrix
    whose rows are [rows].  [tol] defaults to {!default_tol}. *)
val rref : ?tol:float -> cols:int -> float array array -> rref

(** [rank ?tol ~cols rows] is [(rref ?tol ~cols rows).rank]. *)
val rank : ?tol:float -> cols:int -> float array array -> int

(** [basis ?tol ~cols rows] is the [cols × nullity] null-space basis
    read off {!rref} the way {!Nullspace.of_incidence} reads it:
    one column per free variable, that variable set to [1] and each
    pivot variable to minus its reduced entry. *)
val basis : ?tol:float -> cols:int -> float array array -> float array array

(** [of_incidence ~cols idxs] is the 0/1 matrix with a [1.0] at each
    index of [idxs.(i)] in row [i], as boxed rows. *)
val of_incidence : cols:int -> int array array -> float array array
