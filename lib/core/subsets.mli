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

(** [hash s] is a structural hash of [corr] and [links], consistent
    with {!equal}: subsets are canonical, so a hash table can key on
    them directly. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit

(** [effective_links model obs] marks the links on which unknowns can
    live: links traversed by at least one path and by no always-good
    path.  A link on an always-good path is certified good for the whole
    experiment (Separability), so its good probability is 1 and it
    vanishes from every equation; a link traversed by no path can never
    appear in an equation at all. *)
val effective_links : Model.t -> Observations.t -> Tomo_util.Bitset.t

(** [complement model ~effective s] is the paper's [Ē]: the other
    effective links of the same correlation set. *)
val complement : Model.t -> effective:Tomo_util.Bitset.t -> t -> int array

(** [candidate_paths model ~effective s] is [Paths(E) \ Paths(Ē)] — the
    paths that traverse [s] but avoid its complement; all equations
    "about" [s] use path sets drawn from this pool (Alg. 1, line 3). *)
val candidate_paths :
  Model.t -> effective:Tomo_util.Bitset.t -> t -> Tomo_util.Bitset.t

(** [inducible model ~effective s] decides whether [s] can appear in an
    equation at all: every link of [s] must be traversed by some path
    avoiding the complement [Ē], otherwise no path set induces exactly
    [s] on its correlation set. *)
val inducible : Model.t -> effective:Tomo_util.Bitset.t -> t -> bool

(** [enumerate table ~max_size ~limit_per_set] lists, per correlation
    set of [table]'s model, the inducible potentially congested subsets
    (over [table]'s effective links) of size [<= max_size] (at most
    [limit_per_set] per correlation set), singletons first.  Subsets
    are visited by size, then in lexicographic order; per correlation
    set at most [limit_per_set * 4] are visited, and stopping early —
    by the find cap or the visit budget — truncates Ê and counts once
    into the [subsets_enumeration_capped] metric.  Each visit builds
    the subset and tests it with {!inducible}: the generic path, which
    works for a correlation set of any width. *)
val enumerate : Signatures.t -> max_size:int -> limit_per_set:int -> t list

(** [of_mask table ~corr mask] is the subset of set [corr] whose links
    are the set bits of [mask] in {!Signatures}' format. *)
val of_mask : Signatures.t -> corr:int -> int -> t

(** [enumerate_masks table ~max_size ~limit_per_set f] is {!enumerate}
    on the signature table: it visits the same subsets in the same
    order under the same budget and find cap, counts the same
    metrics, and calls [f corr mask] for each subset {!enumerate} lists,
    in its order.  Each visit tests the subset's mask with
    {!Signatures.inducible} and allocates nothing.
    @raise Invalid_argument unless [table.fits]. *)
val enumerate_masks :
  Signatures.t -> max_size:int -> limit_per_set:int -> (int -> int -> unit) ->
  unit
