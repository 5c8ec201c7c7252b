(** Solving the Probability Computation system and reading probabilities
    out of it (paper §5.3–5.4).

    Given the path sets selected by {!Algorithm1}, each contributes one
    linear equation in the logs of the subset good-probabilities; the
    right-hand sides are the (smoothed) empirical log-frequencies from
    {!Observations}.  The system is solved for its minimum-norm
    solution: through the selection's factor
    ({!Tomo_linalg.Sparse_chol}, exact, two triangular solves) when its
    rows are independent, by least squares ({!Tomo_linalg.Cgls}) when
    the selection is a redundant pool without one.  Variables whose
    null-space row vanishes are uniquely determined ("identifiable"),
    the rest are reported from the minimum-norm solution and flagged.

    From the good probabilities, congestion probabilities of link sets
    follow by inclusion–exclusion within a correlation set and by
    independence across correlation sets (Assumption 5). *)

type t = {
  selection : Algorithm1.selection;
  values : float array;  (** per variable: log good-probability *)
  obs : Observations.t;
      (** kept for the fallback marginal's observable dependence test *)
}

(** [solve selection obs] estimates every variable of the selected
    system. *)
val solve : Algorithm1.selection -> Observations.t -> t

(** [solve_with_counts selection obs ~counts] is [solve] with the
    right-hand side built from externally maintained all-good counts:
    [counts.(i)] must be [Observations.all_good_count obs rows.(i).paths]
    for the [i]-th selected row.  The streaming engine maintains these
    incrementally per tick instead of recounting window intersections,
    and each count's log-frequency is a read from [obs]'s table
    ({!Observations.smoothed_log_probs}); given correct counts the
    result is bit-identical to [solve].
    @raise Invalid_argument unless there is exactly one count per row. *)
val solve_with_counts :
  Algorithm1.selection -> Observations.t -> counts:int array -> t

(** [good_prob t s] is [P(all links of s good)] if [s] is a registered,
    identifiable variable. *)
val good_prob : t -> Subsets.t -> float option

(** [good_prob_est t s] also answers for registered but unidentifiable
    variables, from the minimum-norm solution. *)
val good_prob_est : t -> Subsets.t -> float option

(** Fallback strategy for links whose singleton good-probability is not
    expressible (chain links).  [`Whole] reports the containing subset's
    marginal (the Correlation-heuristic rule — biased up); [`Split]
    splits the subset's log good-probability evenly (unbiased for
    independent-alike chains, biased down for correlated ones);
    [`Adaptive] (the default) interpolates using the observed
    co-congestion of separating witness paths and quotient estimates
    from identifiable super/sub-set pairs. *)
type fallback = [ `Whole | `Split | `Adaptive ]

(** [link_marginal t e] is the link's congestion probability
    [P(X_e = 1)], read with the [`Adaptive] fallback:
    - [0] for links outside the potentially congested set (they are
      certified good or unobserved);
    - [1 − exp z] for a registered singleton;
    - for an effective link whose singleton was never expressible (e.g. a
      chain link always observed together with a neighbour), the
      adaptive reading of the smallest registered subset [S] containing
      it ({!fallback}); the link is flagged unidentifiable.

    What each link is read from is decided once per selection
    ({!Readout}); a call is arithmetic on the solution and, for the
    adaptive fallback, the window's path counts.
    @raise Invalid_argument if [e] is not a link of the model. *)
val link_marginal : t -> int -> float

(** [link_marginal_with strategy t e] selects the chain-link fallback
    explicitly: [link_marginal] is [link_marginal_with `Adaptive], the
    Correlation-heuristic baseline reads [`Whole], and [tomo_cli
    fallback] compares all three. *)
val link_marginal_with : fallback -> t -> int -> float

(** [link_marginals t] is every link's [link_marginal t e], indexed by
    link, bit for bit: one pass over the readout plan in link order that
    allocates only the result. *)
val link_marginals : t -> float array

(** [link_identifiable t e] is [true] iff [link_marginal] returned a
    uniquely determined value (always-good links count as
    identifiable): the flag its selection's readout plan holds
    ({!Readout.t}), decided once per selection.
    @raise Invalid_argument if [e] is not a link of the model. *)
val link_identifiable : t -> int -> bool

(** [congestion_prob t ~corr links] is [P(all links congested)] for a set
    of links in one correlation set, by inclusion–exclusion; [None] if a
    needed good-probability is not identifiable. *)
val congestion_prob : t -> corr:int -> int array -> float option

(** [set_congestion_prob t links] generalizes to links spanning several
    correlation sets (independent across sets, so probabilities
    multiply). *)
val set_congestion_prob : t -> int array -> float option

(** [pattern_logprob t ~corr ~congested ~good] is
    [log P(∩ congested X=1, ∩ good X=0)] within a correlation set —
    the building block of the Bayesian-Correlation MAP scoring.  Uses
    exact inclusion–exclusion when every needed good-probability is
    identifiable, otherwise an independence approximation from the link
    marginals.  The result is clamped to [log 1e-12]. *)
val pattern_logprob :
  t -> corr:int -> congested:int array -> good:int array -> float

(** [ambiguous_links t] is the set of structurally ambiguous effective
    links of the solved system: links sharing their complete path set
    with another effective link ({!Identifiability.ambiguous_links}).
    No estimator — this one included — can attribute congestion to such
    a link rather than to its class mates, so point estimates for them
    are not answerable queries. *)
val ambiguous_links : t -> Tomo_util.Bitset.t
