(** The Independence algorithm [11] — the Probability Computation step of
    CLINK / Bayesian-Independence (paper §2, §3.1, §5.4 "Independence").

    Under Assumption 4 (all links independent), the unknowns are the
    per-link log good-probabilities and the equation for a path set [P]
    is [Σ_{e ∈ Links(P)} z_e = log P(all P good)].  Equations are formed
    for every single path and every intersecting pair of paths
    ({!Baseline_rows}); the system is solved by least squares.

    Its characteristic failure (paper §3.1): when links are correlated,
    [P(X_i = 0, X_j = 0) ≠ P(X_i = 0) · P(X_j = 0)], so equations mixing
    correlated links are simply wrong, and the recovered marginals drift
    — the paper's "No Independence" scenario. *)

(** [compute model obs] estimates every link's congestion probability. *)
val compute : Model.t -> Observations.t -> Pc_result.t
