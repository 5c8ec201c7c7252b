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
    subsets are skipped ({!row_fast} returns [None]). *)

(** Variables over one {!Signatures} table: a map from (correlation
    set, mask in the table's format) to variable, open addressing over
    flat arrays that hashes and compares ints only, plus each
    variable's subset.  Variables are numbered in registration order.

    A registry is open until {!finish}: it may gain variables, and it
    answers {!pool} and makes resolvers.  A finished registry keeps
    its variables and only the table's per-link positions, and
    answers {!find}, {!find_mask}, {!subset_of_var}, {!mask_of_var} and
    {!n_vars}; the functions that read the rest of the table refuse
    it. *)
type registry

val registry : Signatures.t -> registry
val n_vars : registry -> int

(** [finish reg] drops [reg]'s signature table, so a registry kept
    after its selection is built holds no more than its readers read.
    From then on {!add}, {!add_mask}, {!pool},
    {!register_single_path_masks}, {!resolver} and {!row_grow} raise
    [Invalid_argument].  Finishing twice is harmless. *)
val finish : registry -> unit

(** [find reg s] / [add reg s]: lookup / get-or-create the variable index
    of a subset, through its mask.  A subset holding a link outside the
    table's effective set is never registered: [find] returns [None]
    for it.
    @raise Invalid_argument from [add] on such a subset, or on a
    finished registry. *)
val find : registry -> Subsets.t -> int option

val add : registry -> Subsets.t -> int

(** [find_mask reg ~corr mask i] is the variable of the subset of set
    [corr] with the mask at [i] of [mask], or [-1]. *)
val find_mask : registry -> corr:int -> int array -> int -> int

(** [add_mask reg ~corr mask i] is {!add} of that subset: the subset is
    built only when it is new. *)
val add_mask : registry -> corr:int -> int array -> int -> int

(** [subset_of_var reg v] inverts the registry.
    @raise Invalid_argument on an unknown index. *)
val subset_of_var : registry -> int -> Subsets.t

(** [mask_of_var reg v] is variable [v]'s mask (a fresh array). *)
val mask_of_var : registry -> int -> int array

(** [pool reg v] is {!Signatures.pool} of variable [v]'s subset: the
    seed pool [Paths(E) \ Paths(Ē)]. *)
val pool : registry -> int -> int array

(** [register_single_path_masks reg] registers the induced subsets of
    every single path, read from the table's per-path pairs: path by
    path, sets in the order of their first effective link on the
    path. *)
val register_single_path_masks : registry -> unit

(** A representable equation: the path set and the variables of its
    incidence row (sorted, distinct). *)
type row = { paths : int array; vars : int array }

(** Scratch for building rows from the table: a candidate ORs its
    paths' (set, word) pairs into per-set masks, and each mask is
    resolved through the registry.  One resolver serves one thread. *)
type resolver

val resolver : registry -> resolver

(** [row_fast rz ~paths] builds the equation for a path set, or [None]
    if some induced subset is not registered or the path set touches no
    effective link. *)
val row_fast : resolver -> paths:int array -> row option

(** [row_vars rz ~paths] is the [vars] of [row_fast rz ~paths] without
    allocating: a buffer owned by the resolver and valid until the next
    call, or [[||]] where [row_fast] returns [None] (a row always has a
    variable).  A caller that keeps the row copies it. *)
val row_vars : resolver -> paths:int array -> int array

(** [row_grow rz ~paths] is [row_fast] but registers missing induced
    subsets instead of failing, sets ordered by their smallest effective
    link in [Links(P)]; only returns [None] when the path set touches no
    effective link. *)
val row_grow : resolver -> paths:int array -> row option
