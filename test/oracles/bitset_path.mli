(** The generic bit-set path for correlation subsets and equations: the
    reference {!Tomo.Signatures}' table is checked against.

    Every answer here is computed from the model's bit sets, subset by
    subset, with no mask and no signature: [Paths(E) \ Paths(Ē)] by
    bit-set differences, inducibility by testing each link of [E]
    against that pool, rows by grouping [Links(P)] per correlation set.
    The registry keys variables on the subsets themselves, so it shares
    nothing with the mask format it checks. *)

(** {1 Subsets} *)

(** [complement model ~effective s] is the paper's [Ē]: the other
    effective links of [s]'s correlation set, ascending. *)
val complement :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> Tomo.Subsets.t -> int array

(** [candidate_paths model ~effective s] is [Paths(E) \ Paths(Ē)]: the
    paths that traverse [s] but avoid its complement (Alg. 1, line 3). *)
val candidate_paths :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> Tomo.Subsets.t ->
  Tomo_util.Bitset.t

(** [inducible model ~effective s]: every link of [s] is traversed by
    some path of its candidate pool, so some path set induces exactly
    [s] on its correlation set. *)
val inducible :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> Tomo.Subsets.t -> bool

(** [enumerate model ~effective ~max_size ~limit_per_set] lists what
    {!Tomo.Subsets.enumerate} reports, in its order, counting the same
    metrics ([subsets_enumerated], [subsets_enumeration_capped], and
    [combin_subsets_visited] through {!Tomo_util.Combin}); each visit
    builds the subset and tests it with {!inducible}. *)
val enumerate :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> max_size:int ->
  limit_per_set:int -> Tomo.Subsets.t list

(** {1 Equations} *)

(** Variables keyed by their subsets, numbered in registration order. *)
type registry

val registry : unit -> registry
val n_vars : registry -> int
val find : registry -> Tomo.Subsets.t -> int option
val add : registry -> Tomo.Subsets.t -> int

(** [subsets reg] is every variable's subset, by variable. *)
val subsets : registry -> Tomo.Subsets.t array

(** [induced_subsets model ~effective ~links] groups the effective links
    of a link set by correlation set, sets ordered by their smallest
    such link: the subsets [Links(P) ∩ C] of Eq. 1. *)
val induced_subsets :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> links:Tomo_util.Bitset.t ->
  Tomo.Subsets.t list

(** [row model ~effective reg ~paths] builds the equation for a path set,
    or [None] if some induced subset is not registered or the path set
    touches no effective link. *)
val row :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> registry ->
  paths:int array -> Tomo.Eqn.row option

(** [row_grow] is {!row} but registers the missing induced subsets, in
    {!induced_subsets}' order; [None] only when the path set touches no
    effective link. *)
val row_grow :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> registry ->
  paths:int array -> Tomo.Eqn.row option

(** [register_single_path_vars model ~effective reg] registers the
    induced subsets of every single path, path by path; returns how many
    variables were added. *)
val register_single_path_vars :
  Tomo.Model.t -> effective:Tomo_util.Bitset.t -> registry -> int
