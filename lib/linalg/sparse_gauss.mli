(** Greedy in-order independence over 0/1 incidence rows, the first
    step of Algorithm 1's batched seed phase.  The null space of the
    rows it keeps is then read off one elimination
    ({!Nullspace.of_incidence}). *)

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
