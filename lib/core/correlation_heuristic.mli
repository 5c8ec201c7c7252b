(** Reconstruction of the Correlation-heuristic [9] (Ghita et al.,
    IMC 2010), the paper's second Figure-4 baseline.

    Like Correlation-complete it respects the Correlation Sets assumption
    (unknowns are correlation-subset good-probabilities, never products
    over correlated links), but instead of selecting a minimal
    independent system it throws the whole baseline equation pool at the
    solver — every single path and every intersecting pair
    ({!Baseline_rows}) — and reads the per-link marginals out of the
    least-squares solution.  On sparse topologies this "significantly
    larger number of equations … introduces more noise when solving the
    system" (paper §5.4), which is exactly the behaviour the figure
    contrasts with Correlation-complete. *)

(** [compute model obs] estimates every link's congestion probability.
    Returns both the per-link summary and the underlying engine (for
    subset-probability queries in tests). *)
val compute : Model.t -> Observations.t -> Pc_result.t * Prob_engine.t
