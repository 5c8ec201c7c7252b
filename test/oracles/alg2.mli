(** The paper's Algorithm 2 (NullSpaceUpdate) in its functional form:
    the bitwise reference the in-place {!Nullspace.tracker} is checked
    against.

    Given [n] ([n_vars × p]) spanning the null space of a system [R]
    and the incidence row [r] (coefficient 1 at each index of [idxs]),
    [update_incidence ?tol n idxs] is [None] when [r · N] is within
    [tol] of zero (the row is dependent; the null space is unchanged)
    and otherwise [Some n'] spanning the null space of [R] with [r]
    appended: it pivots on the column [j] maximizing [|r · N_j|] (the
    first one on a tie) and projects each other column [k] as
    [N_k − (r·N_k / r·N_j) · N_j], keeping their order.  [tol] defaults
    to the tracker's ([1e-8]).  The tracker performs the same
    floating-point operations on every entry it changes; the entries it
    leaves alone differ from these at most in the sign of a zero. *)
val update_incidence : ?tol:float -> Matrix.t -> int array -> Matrix.t option
