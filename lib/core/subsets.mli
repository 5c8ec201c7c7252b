(** Correlation subsets (paper §5.2).

    A correlation subset is a non-empty subset of one correlation set;
    the unknowns of the Probability Computation system are the good
    probabilities [P(∩_{e ∈ E} X_e = 0)] of the *potentially congested*
    correlation subsets.  This module provides the canonical subset
    value, the potentially-congested analysis, and the enumeration of
    candidate subsets up to a configured size. *)

type t = private {
  corr : int;  (** correlation-set index *)
  links : int array;  (** sorted, non-empty *)
}

(** [make model ~corr links] canonicalizes and validates: links must be
    non-empty, distinct, and all members of correlation set [corr]. *)
val make : Model.t -> corr:int -> int array -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [effective_links model obs] marks the links on which unknowns can
    live: links traversed by at least one path and by no always-good
    path.  A link on an always-good path is certified good for the whole
    experiment (Separability), so its good probability is 1 and it
    vanishes from every equation; a link traversed by no path can never
    appear in an equation at all. *)
val effective_links : Model.t -> Observations.t -> Tomo_util.Bitset.t

(** [enumerate table ~max_size ~limit_per_set f] calls [f corr mask],
    per correlation set of [table]'s model, for the inducible
    potentially congested subsets (over [table]'s effective links) of
    size [<= max_size] (at most [limit_per_set] per correlation set),
    singletons first.  [mask] holds the subset's [table.words] words
    from index 0, in {!Signatures}' format; it is overwritten after [f]
    returns.  Subsets are visited by size, then in lexicographic order;
    per correlation set at most [limit_per_set * 4] are visited, and
    stopping early — by the find cap or the visit budget — truncates Ê
    and counts once into the [subsets_enumeration_capped] metric.  A
    visit tests the subset's mask with {!Signatures.inducible} and
    allocates nothing. *)
val enumerate :
  Signatures.t -> max_size:int -> limit_per_set:int ->
  (int -> int array -> unit) -> unit

(** [of_mask table ~corr mask i] is the subset of set [corr] whose links
    are the set bits of the mask at [i] of [mask], in {!Signatures}'
    format. *)
val of_mask : Signatures.t -> corr:int -> int array -> int -> t
