(** Path signatures on correlation sets, built once per selection.

    The {e signature} of a path on a correlation set [C] is the set of
    [C]'s effective links the path traverses.  Algorithm 1's
    combinatorial questions all reduce to signatures (DESIGN,
    "Signature table"):

    - a subset [E] of [C] is inducible iff the signatures on [C] that
      lie inside [E] cover [E] ({!inducible});
    - the seed pool [Paths(E) \ Paths(Ē)] is the set of paths whose
      signature on [C] is a non-empty subset of [E] ({!pool});
    - a path set's equation ORs its paths' signatures set by set
      ({!Eqn.resolver}), so two paths with the same signatures on every
      set are interchangeable in every row ([rep]).

    A signature is a word-size mask: bit [i] stands for the [i]-th
    effective link of the set in ascending order.  This module owns that
    format and the decision it needs, whether a set's effective links
    fit one word.  A set that does not fit gets no masks, and [fits] is
    then [false]: the consumers fall back to their generic bit-set
    paths. *)

type t = private {
  model : Model.t;
  effective : Tomo_util.Bitset.t;
  fits : bool;  (** every correlation set fits one word *)
  eff_start : int array;
      (** per set [c]: its effective links are
          [eff_links.(eff_start.(c)) .. eff_links.(eff_start.(c + 1) - 1)],
          ascending, wide sets included *)
  eff_links : int array;
  link_pos : int array;
      (** per link: its bit in its set's masks; [-1] if the link is not
          effective or its set does not fit *)
  path_start : int array;
      (** per path [p]: its (set, mask) pairs are
          [path_start.(p) .. path_start.(p + 1) - 1] of [pair_set] and
          [pair_mask], sets in the order of their first effective link
          on the path; masks are non-empty *)
  pair_set : int array;
  pair_mask : int array;
  set_start : int array;
      (** per set [c]: the paths with a non-empty signature on [c] are
          [set_path.(set_start.(c)) .. set_path.(set_start.(c + 1) - 1)],
          ascending, their signatures in [set_mask] *)
  set_path : int array;
  set_mask : int array;
  sig_start : int array;
      (** per set [c]: its distinct signatures are
          [sigs.(sig_start.(c)) .. sigs.(sig_start.(c + 1) - 1)],
          ascending *)
  sigs : int array;
  rep : int array;
      (** per path: the smallest path with the same pairs (itself when
          [fits] is [false]) *)
}

(** [build model ~effective] builds the table for one effective set. *)
val build : Model.t -> effective:Tomo_util.Bitset.t -> t

(** [set_fits t c] is whether set [c]'s effective links fit one word,
    so that [c] has masks. *)
val set_fits : t -> int -> bool

(** [n_effective t c] counts set [c]'s effective links. *)
val n_effective : t -> int -> int

(** [effective_links t c] is set [c]'s effective links, ascending (a
    fresh array). *)
val effective_links : t -> int -> int array

(** [inducible t ~corr e] decides whether the subset of set [corr] with
    non-empty mask [e] is inducible: the set's signatures inside [e]
    cover [e].  Allocates nothing. *)
val inducible : t -> corr:int -> int -> bool

(** [pool t ~corr e] is [Paths(E) \ Paths(Ē)] for the subset of set
    [corr] with mask [e]: the paths whose signature on [corr] is a
    non-empty subset of [e], ascending. *)
val pool : t -> corr:int -> int -> int array
