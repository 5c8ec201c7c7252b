(** The network as tomography algorithms see it (paper §2).

    A model is the known side of the inverse problem: the set of links
    [E*], the set of paths [P*] with their link incidence, and the
    correlation sets [C*] (one per AS — Assumption 5).  Everything hidden
    (congestion states, probabilities) lives elsewhere.

    The module also provides the paper's coverage functions:
    [Paths(E)] — paths traversing at least one link of [E] — and
    [Links(P)] — links traversed by at least one path of [P] (§5.2). *)

type t = private {
  n_links : int;
  n_paths : int;
  path_links : Tomo_util.Bitset.t array;
      (** per path: set of links it traverses *)
  link_paths : Tomo_util.Bitset.t array;
      (** per link: set of paths traversing it *)
  corr_sets : int array array;
      (** links grouped by correlation set, each sorted *)
  corr_of_link : int array;  (** link → index into [corr_sets] *)
}

(** [make ~n_links ~paths ~corr_sets] builds a model.  [paths] gives the
    links of each path; [corr_sets] must partition [0 .. n_links-1].
    @raise Invalid_argument on out-of-range links, empty or duplicate-link
    paths, or a non-partition. *)
val make :
  n_links:int -> paths:int array array -> corr_sets:int array array -> t

(** [paths_of_links t links] is the paper's [Paths(E)]: the set of paths
    (as a bit set) traversing at least one link in [links]. *)
val paths_of_links : t -> int array -> Tomo_util.Bitset.t

(** [links_of_paths t paths] is the paper's [Links(P)]: the set of links
    (as a bit set) traversed by at least one path in [paths]. *)
val links_of_paths : t -> int array -> Tomo_util.Bitset.t

(** [corr_set_links t c] is the (sorted) links of correlation set [c]. *)
val corr_set_links : t -> int -> int array

val n_corr_sets : t -> int
