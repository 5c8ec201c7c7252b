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

(** [key s] is a canonical string key (for hash tables). *)
val key : t -> string

val pp : Format.formatter -> t -> unit

(** [effective_links model obs] marks the links on which unknowns can
    live: links traversed by at least one path and by no always-good
    path.  A link on an always-good path is certified good for the whole
    experiment (Separability), so its good probability is 1 and it
    vanishes from every equation; a link traversed by no path can never
    appear in an equation at all. *)
val effective_links : Model.t -> Observations.t -> Tomo_util.Bitset.t

(** [effective_corr_set model ~effective c] is correlation set [c]
    restricted to effective links (sorted). *)
val effective_corr_set :
  Model.t -> effective:Tomo_util.Bitset.t -> int -> int array

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

(** [enumerate model ~effective ~max_size ~limit_per_set] lists, per
    correlation set, the inducible potentially congested subsets of size
    [<= max_size] (at most [limit_per_set] per correlation set),
    singletons first.  Per correlation set at most [limit_per_set * 4]
    subsets are visited; stopping early — by the find cap or the visit
    budget — truncates Ê and counts once into the
    [subsets_enumeration_capped] metric.

    Subset sizes that {!Identifiability.inducible_size_witness} proves
    empty are skipped without fanning out their combinations; the
    skipped visits are still charged against the visit budget, so the
    enumerated list and every truncation decision are bit-identical to
    the exhaustive fan-out.  Skipped visits count into the [ident_pruned_sets]
    metric. *)
val enumerate :
  Model.t ->
  effective:Tomo_util.Bitset.t ->
  max_size:int ->
  limit_per_set:int ->
  t list

(** [set_ident_prune b] switches the identifiability pruner on or off
    process-wide.  It is on from start-up and results are bit-identical
    either way; the off position is the exhaustive reference that the
    pruning parity properties compare against. *)
val set_ident_prune : bool -> unit
