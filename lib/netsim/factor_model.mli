(** Joint congestion model over AS-level links (paper §3.2 simulator).

    Each router-level factor [f] is congested independently with
    probability [q_f] during an interval; an AS-level link is congested
    iff at least one of its backing factors is.  Links sharing factors are
    therefore positively correlated, links of different ASes independent
    (factors never cross ASes), and — crucially for evaluation — every
    joint probability has a closed form:

    - [P(all links of S good) = Π_{f ∈ factors(S)} (1 − q_f)]
    - [P(all links of E congested)] by inclusion–exclusion over the good
      probabilities of subsets of [E].

    That closed form is the ground truth Figures 4(a)–(d) measure
    estimation error against. *)

type t

(** [make overlay probs] pairs an overlay with per-factor congestion
    probabilities.  @raise Invalid_argument if [probs] has the wrong
    length or a probability is outside [0, 1]. *)
val make : Tomo_topology.Overlay.t -> float array -> t

(** [draw_interval t rng] samples one interval's joint congestion state:
    a bit set over links, bit set = link congested. *)
val draw_interval : t -> Tomo_util.Rng.t -> Tomo_util.Bitset.t

(** [link_marginal t e] is [P(X_e = 1)]. *)
val link_marginal : t -> int -> float

(** [good_prob t s] is [P(∩_{e ∈ s} X_e = 0)] — the probability that
    every link in [s] is good.  [good_prob t [||] = 1]. *)
val good_prob : t -> int array -> float

(** [congestion_prob t s] is [P(∩_{e ∈ s} X_e = 1)] — the probability
    that every link in [s] is congested — computed by inclusion–exclusion
    over [good_prob].  Exponential in [Array.length s]; intended for the
    small subsets (≤ 5 links) the evaluation reports on. *)
val congestion_prob : t -> int array -> float
