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

    This module owns the mask format.  A mask is [words] consecutive
    ints of an array, from an offset: bit [i mod Sys.int_size] of word
    [i / Sys.int_size] stands for the [i]-th effective link of the set
    in ascending order.  [words] is the number of words the table's
    widest set needs (at least 1), the same for every set of the
    table. *)

type t = private {
  model : Model.t;
  effective : Tomo_util.Bitset.t;
  words : int;  (** words per mask *)
  eff_start : int array;
      (** per set [c]: its effective links are
          [eff_links.(eff_start.(c)) .. eff_links.(eff_start.(c + 1) - 1)],
          ascending *)
  eff_links : int array;
  link_pos : int array;
      (** per link: its position among its set's effective links; [-1]
          if the link is not effective *)
  pos_word : int array;
  pos_bit : int array;
      (** per position [i]: its word [i / Sys.int_size] and its bit
          [1 lsl (i mod Sys.int_size)], so that no hot loop divides *)
  path_start : int array;
      (** per path [p]: its pairs are
          [path_start.(p) .. path_start.(p + 1) - 1]; a pair is one
          non-zero word of the path's signature on one set.  Sets come
          in the order of their first effective link on the path, and a
          set's pairs are adjacent, words ascending *)
  pair_set : int array;  (** per pair: its set [c] *)
  pair_slot : int array;  (** per pair: [c * words + j] for its word [j] *)
  pair_mask : int array;  (** per pair: the word's bits *)
  set_start : int array;
      (** per set [c]: the paths with a non-empty signature on [c] are
          [set_path.(set_start.(c)) .. set_path.(set_start.(c + 1) - 1)],
          ascending; entry [i]'s signature is the mask at [i * words] of
          [set_mask] *)
  set_path : int array;
  set_mask : int array;
  sig_start : int array;
      (** per set [c]: its distinct signatures are the masks [k] of
          [sigs] (at [k * words]) for
          [sig_start.(c) <= k < sig_start.(c + 1)], ascending word by
          word *)
  sigs : int array;
  rep : int array;  (** per path: the smallest path with the same pairs *)
}

(** [build model ~effective] builds the table for one effective set. *)
val build : Model.t -> effective:Tomo_util.Bitset.t -> t

(** [n_effective t c] counts set [c]'s effective links. *)
val n_effective : t -> int -> int

(** [effective_links t c] is set [c]'s effective links, ascending (a
    fresh array). *)
val effective_links : t -> int -> int array

(** [equal a ia b ib w] is whether the [w]-word masks at [ia] of [a]
    and at [ib] of [b] are equal. *)
val equal : int array -> int -> int array -> int -> int -> bool

(** [popcount a i w] counts the set bits of the [w]-word mask at [i]
    of [a]. *)
val popcount : int array -> int -> int -> int

(** [inducible t ~corr e i] decides whether the subset of set [corr]
    with non-empty mask at [i] of [e] is inducible: the set's
    signatures inside it cover it.  Allocates nothing. *)
val inducible : t -> corr:int -> int array -> int -> bool

(** [pool t ~corr e i] is [Paths(E) \ Paths(Ē)] for the subset of set
    [corr] with the mask at [i] of [e]: the paths whose signature on
    [corr] is a non-empty subset of it, ascending. *)
val pool : t -> corr:int -> int array -> int -> int array
