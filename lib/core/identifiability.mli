(** Structural identifiability analysis (Bartolini et al., "On
    Fundamental Bounds of Failure Identifiability by Boolean Network
    Tomography").

    Everything a Boolean monitor sees about a link set is the set of
    paths it touches: two link sets covering exactly the same paths are
    indistinguishable by any observation.  From the routing matrix alone
    this module derives

    - a per-link classification: a link sharing its complete path set
      with another effective link is {e ambiguous} — no estimator can
      attribute congestion to it rather than to its class mates
      (the paper's Condition 1, generalized from the first offending
      pair to full ambiguity classes with representatives);
    - per-correlation-set bounds on the candidate subsets: which subset
      sizes admit {e any} inducible subset, exact inducible-subset
      counts, and the maximal size [k] below which all candidate
      subsets are pairwise distinguishable.

    The per-set analysis rests on one structural fact: a subset [E] of a
    correlation set is inducible iff it is a union of path
    {e signatures} (traces of paths on the set's effective links), so
    the inducible subsets are the union-closure of the signatures — a
    set usually far smaller than the [C(n,k)] fan-out. *)

type link_class = {
  representative : int;  (** smallest link of the class *)
  links : int array;  (** all links sharing one path set, ascending *)
}

type corr_stats = {
  corr : int;
  n_effective : int;
  n_ambiguous : int;  (** effective links of the set in some ambiguity class *)
  n_signatures : int;  (** distinct path signatures on the set *)
  min_signature : int;  (** smallest signature size; [0] if uncovered *)
  inducible_by_size : int array option;
      (** exact count of inducible subsets per size [1..max_size];
          [None] when the closure budget was exhausted *)
  max_identifiable_size : int option;
      (** largest [k <= max_size] such that all inducible subsets of
          size [<= k] have pairwise-distinct path coverage; [None] when
          the closure was truncated *)
  pruned_sizes : int;
      (** sizes in [1..min max_size n_effective] with provably no
          inducible subset: slots a size-by-size enumeration could skip
          (the "prunable size slots" of {!pp}) *)
}

type t = {
  max_size : int;
  n_effective : int;
  classes : link_class array;  (** ambiguity classes of size >= 2 *)
  ambiguous : Tomo_util.Bitset.t;  (** links in some class *)
  corr : corr_stats array;
}

val default_max_size : int

(** [covered_links model] is the purely structural stand-in for
    {!Subsets.effective_links} when no observations exist (the CLI's
    per-topology analysis): every link traversed by at least one
    path. *)
val covered_links : Model.t -> Tomo_util.Bitset.t

(** [ambiguity_classes model ~effective] groups the effective links by
    their complete path sets and returns the classes with two or more
    members, ordered by representative.  Counts the member links into
    the [ident_ambiguous_links] metric. *)
val ambiguity_classes : Model.t -> effective:Tomo_util.Bitset.t -> link_class array

(** [ambiguous_links model ~effective] is the set of links in some
    ambiguity class. *)
val ambiguous_links : Model.t -> effective:Tomo_util.Bitset.t -> Tomo_util.Bitset.t

(** [analyze model ~effective] runs the full analysis: ambiguity
    classes plus per-correlation-set closure statistics. *)
val analyze :
  ?max_size:int -> ?budget:int -> Model.t -> effective:Tomo_util.Bitset.t -> t

val link_ambiguous : t -> int -> bool

(** Human-readable summary (the [tomo_cli identifiability] output). *)
val pp : Format.formatter -> t -> unit
