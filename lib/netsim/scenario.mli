(** Congestion scenarios of the paper's evaluation (§3.2, §5.4).

    A scenario fixes which ~10% of the links have a non-zero congestion
    probability (the *congestible* set) and a policy for how that
    probability is realized in terms of router-level factors:

    - {b Random}: congestible links chosen uniformly at random, any
      backing factor may carry the probability — most links independent,
      with incidental correlations when a shared factor is picked
      (matching the paper's remark that under random congestion "some of
      the congested links happen to be correlated").
    - {b Concentrated}: congestible links drawn from whole destination
      edge regions (edge links grouped by owning AS); private factors
      preferred, so the scenario stresses *concentration*, not
      correlation ("there is no congestion at the core").
    - {b No_independence}: links covered by *shared* factors — thinnest
      factors first — so every congestible link is correlated with at
      least one other, on links where inference actually has to choose
      among explanations.

    [draw_probs] draws one *epoch*: per congestible link it activates one
    eligible factor with a probability uniform in (0.01, 0.99).  Under
    the paper's "No Stationarity" dynamics it is called every few
    intervals, so both the magnitudes and the underlying router-level
    causes shift over time while the congestible link set stays fixed —
    long-run averages then genuinely mislead per-interval (Bayesian)
    inference, which is the paper's point. *)

type kind = Random | Concentrated | No_independence

val kind_to_string : kind -> string

type t

(** [make overlay ~kind ~frac ~rng] selects the congestible link set.
    [frac] is the fraction of links with non-zero congestion probability
    (the paper uses 0.1). *)
val make :
  Tomo_topology.Overlay.t -> kind:kind -> frac:float -> rng:Tomo_util.Rng.t -> t

val kind : t -> kind
val overlay : t -> Tomo_topology.Overlay.t

(** [congestible_links t] is the fixed set of links with non-zero
    marginal congestion probability. *)
val congestible_links : t -> int array

(** [draw_probs t rng] draws one epoch's per-factor probabilities; all
    factors of non-congestible-only links stay at 0, and every
    congestible link ends up backed by at least one positive factor. *)
val draw_probs : t -> Tomo_util.Rng.t -> float array

(** [edge_links overlay] is the pool Concentrated draws from: links that
    appear as the last link of at least one path (the destination edge of
    the network). *)
val edge_links : Tomo_topology.Overlay.t -> int array
