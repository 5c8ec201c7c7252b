(** Path-set pools for the baseline Probability Computation algorithms.

    Independence [11] and Correlation-heuristic [9] do not select a
    minimal equation system the way Algorithm 1 does; they form equations
    for a large fixed pool of path sets — every single path plus pairs of
    intersecting paths (a pair of link-disjoint paths is linearly
    redundant: its equation is the sum of the two single-path equations).
    This is the "significantly larger number of equations" the paper
    contrasts with Correlation-complete in §5.4. *)

(** [pools model ~effective] returns the path sets: all single
    paths that traverse at least one effective link, followed by

    - pairs of paths sharing an effective link (capped per link), and
    - pairs of paths whose links meet the same correlation set (capped
      per link pair) — these are the equations that are *wrong* under
      the Independence assumption when the links are actually
      correlated, the paper's §3.1 failure mechanism for CLINK.

    Deterministic and globally capped at 30 000 pairs. *)
val pools : Model.t -> effective:Tomo_util.Bitset.t -> int array array
