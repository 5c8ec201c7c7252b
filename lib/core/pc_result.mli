(** Common result shape of the three Probability Computation algorithms
    compared in the paper's Figure 4: Independence [11],
    Correlation-heuristic [9], and Correlation-complete (§5). *)

(** A result is read-only: Correlation-complete and
    Correlation-heuristic results share [identifiable] and [effective]
    with the selection they were read from, and so with every other
    estimate of that selection. *)
type t = {
  marginals : float array;
      (** per link: estimated congestion probability [P(X_e = 1)];
          [0] for links certified good or unobserved *)
  identifiable : bool array;
      (** per link: whether the estimate is uniquely determined by the
          equation system (always-good links count as identifiable) *)
  effective : Tomo_util.Bitset.t;  (** the potentially congested links *)
  n_vars : int;  (** unknowns in the equation system *)
  n_rows : int;  (** equations formed *)
}

(** [potentially_congested t] lists the links Fig. 4 averages errors
    over. *)
val potentially_congested : t -> int list
