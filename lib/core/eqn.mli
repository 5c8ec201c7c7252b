(** Equation construction: the paper's [Row(P, Ê)] and [Matrix(P̂, Ê)]
    (§5.2), over a registry of correlation-subset variables.

    Applying Eq. 1 to a path set [P] gives

    [log P(∩_{p∈P} Y_p = 0) = Σ_C log P(∩_{e ∈ Links(P)∩C} X_e = 0)]

    i.e. an incidence row over the variables [z_E] with [E = Links(P) ∩ C]
    for each correlation set [C] the path set touches (restricted to
    effective links — the good probability of a link certified good is 1
    and drops out).  A row is representable only if every induced subset
    is a registered variable; when variable enumeration is truncated for
    tractability (§4's complexity control), rows inducing unregistered
    subsets are skipped ([row] returns [None]). *)

type registry

val registry : unit -> registry
val n_vars : registry -> int

(** [find reg s] / [add reg s]: lookup / get-or-create the variable index
    of a subset. *)
val find : registry -> Subsets.t -> int option

val add : registry -> Subsets.t -> int

(** [subset_of_var reg v] inverts the registry.
    @raise Invalid_argument on an unknown index. *)
val subset_of_var : registry -> int -> Subsets.t

(** A representable equation: the path set and the variables of its
    incidence row (sorted, distinct). *)
type row = { paths : int array; vars : int array }

(** [induced_subsets model ~effective ~links] groups the effective links
    of a link set by correlation set, yielding the subsets
    [Links(P) ∩ C] of Eq. 1. *)
val induced_subsets :
  Model.t -> effective:Tomo_util.Bitset.t -> links:Tomo_util.Bitset.t ->
  Subsets.t list

(** [row model ~effective reg ~paths] builds the equation for a path set,
    or [None] if some induced subset is not registered or the path set
    touches no effective link. *)
val row :
  Model.t -> effective:Tomo_util.Bitset.t -> registry -> paths:int array ->
  row option

(** A registry's variables keyed by (correlation set, mask of the
    subset's links in {!Signatures}' format), for lookups that hash and
    compare ints only.  Built over a table where some correlation set is
    wider than a word, it holds nothing.  Once a registry is indexed it
    must grow only through {!add_mask}. *)
type index

(** [index table reg] indexes [reg]'s variables; [reg]'s subsets must
    lie in [table]'s effective set. *)
val index : Signatures.t -> registry -> index

(** [add_mask ix ~corr mask] is {!add} of the subset of set [corr]
    with links [mask]: the subset is built and hashed only when it is
    new.  @raise Invalid_argument if the registry grew outside [ix]. *)
val add_mask : index -> corr:int -> int -> int

(** [mask_of_var ix v] is variable [v]'s mask. *)
val mask_of_var : index -> int -> int

(** [register_single_path_masks ix] is {!register_single_path_vars}
    read from the table's per-path pairs: the same variables in the same
    order.  @raise Invalid_argument unless the table fits. *)
val register_single_path_masks : index -> unit

(** A frozen-registry fast path for {!row}: ORs a candidate's per-path
    (correlation set, mask) pairs from the signature table into per-set
    masks, resolves each mask through the index, and reuses scratch
    buffers across calls.  Build it once the registry stops growing.
    When a correlation set is wider than a word, every call falls back
    to {!row} itself. *)
type resolver

val resolver : index -> resolver

(** [row_fast rz ~paths] returns exactly what {!row} would — the same
    [Some]/[None] decision and the same sorted [vars] — at a fraction of
    the per-call cost.  Must not be used after the registry grows. *)
val row_fast : resolver -> paths:int array -> row option

(** [row_vars rz ~paths] is the [vars] of [row_fast rz ~paths] without
    allocating: a buffer owned by the resolver and valid until the next
    call, or [[||]] where [row_fast] returns [None] (a row always has a
    variable).  A caller that keeps the row copies it. *)
val row_vars : resolver -> paths:int array -> int array

(** [row_grow] is [row] but registers missing induced subsets instead of
    failing; only returns [None] when the path set touches no effective
    link. *)
val row_grow :
  Model.t -> effective:Tomo_util.Bitset.t -> registry -> paths:int array ->
  row option

(** [register_single_path_vars model ~effective reg] registers the
    induced subsets of every single path — the variables any single-path
    equation needs; returns how many variables were added. *)
val register_single_path_vars :
  Model.t -> effective:Tomo_util.Bitset.t -> registry -> int
