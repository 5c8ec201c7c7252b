(** The paper's Algorithm 1: selection of path sets (§5.3).

    The goal is a *minimum* set of linearly independent equations that
    pins down as many correlation-subset good-probabilities as possible,
    without enumerating all [2^{|P*|}] path sets:

    + enumerate the potentially congested correlation subsets [Ê]
      (variable registry; truncated to a configurable subset size — the
      complexity-control knob of §4 — plus every subset a single-path
      equation induces);
    + seed [P̂] with one path set per subset [E]:
      [Paths(E) \ Paths(Ē)] (lines 1–5) — the greedy independent subset
      of the seed rows is found by one forward elimination and its null
      space by one batched elimination, not row-by-row updates;
    + maintain a null-space basis [N] of the selected system and
      repeatedly add a path set whose row reduces the null space, trying
      subsets in decreasing Hamming weight of their [N]-row and, within a
      subset [E], candidate path sets [P ⊆ Paths(E) \ Paths(Ē)] in
      increasing size (lines 8–22); each accepted row updates [N]
      in place via Algorithm 2 ({!Tomo_linalg.Nullspace.add_incidence});
    + stop when [N] runs out of columns or no candidate makes progress.

    Because the row space only ever grows, a candidate row once found
    dependent stays dependent; each candidate is therefore visited at
    most once across all outer iterations.  A per-subset cursor
    ({!Tomo_util.Combin.cursor}) streams the candidates, resuming where
    the subset's last visit stopped, which keeps the scan linear in the
    candidate budget; candidates are tested from reused buffers and only
    accepted rows are allocated.

    The path-set questions — which subsets are inducible, each seed
    pool, each candidate's row — are answered from one {!Signatures}
    table built per selection (span [algorithm1.signatures]).  A
    candidate holding a path whose pool has an interchangeable path
    (same signatures) earlier is skipped unresolved: the cursor already
    tested the same row ([alg1_interchangeable_skips]). *)

type config = {
  max_subset_size : int;
      (** largest correlation-subset size enumerated as a target
          variable (default 3) *)
}

(** The other truncation limits are constants: at most 500 target
    subsets per correlation set, and per subset at most 300 candidate
    path sets of at most 8 paths (the paper enumerates every size,
    accepting a [2^{n₂}] term; this cut keeps it practical).  Rank
    decisions use the tolerance [1e-8]. *)
val default_config : config

type selection = {
  model : Model.t;
  effective : Tomo_util.Bitset.t;  (** potentially congested links *)
  registry : Eqn.registry;
  rows : Eqn.row array;  (** the selected, linearly independent system *)
  seeded : Tomo_util.Bitset.t;
      (** per variable: Algorithm 1 kept its seed row, the path set
          {!Eqn.pool} (lines 1-5).  [rows] opens with those rows, in
          variable order, and the grow phase's rows follow.  Empty for a
          pool no seed phase chose (Correlation-heuristic). *)
  nullity : int;
      (** dimension of the selected system's null space: unknowns minus
          rows for Algorithm 1's independent selection *)
  identifiable : bool array;
      (** per variable: its row of the final null-space basis is zero
          ({!Tomo_linalg.Nullspace.determined}), decided once per
          selection *)
  factor : Tomo_linalg.Sparse_chol.t option;
      (** [Some] iff the rows are linearly independent, as Algorithm 1
          guarantees: their factorized [A·Aᵀ], so every solve against
          this selection is two triangular solves.  [None] for a
          redundant, possibly inconsistent row pool
          (Correlation-heuristic), which {!Prob_engine} solves by least
          squares instead. *)
  readout : Readout.t;
      (** how each link's marginal is read off a solution, and whether it
          is uniquely determined ({!Readout.build} over this registry and
          [identifiable]), decided once per selection *)
}

(** [select ?config model obs] runs the algorithm.  [obs] is only used to
    decide which paths are always good (potentially-congested analysis);
    the selection itself is purely structural.  The selected rows are
    factorized ({!Tomo_linalg.Sparse_chol}) and the readout plan, with
    its per-link identifiable flags, is built ({!Readout.build}) before
    returning, and the registry is finished ({!Eqn.finish}). *)
val select : ?config:config -> Model.t -> Observations.t -> selection

(** A selection's answer, packed into one string: its effective
    links, its per-variable identifiable flags, the variables whose seed
    row it kept ([seeded]), one bit each, its nullity, and the grow
    rows' paths, each in the fewest bits that hold every path of the
    model.  A seed row is not stored: its path set is its variable's
    seed pool, which {!of_decision} recomputes.  It holds no registry,
    signature table, factor or readout either: {!of_decision} rebuilds
    those.  A decision is immutable and holds no model: {!of_decision}
    is given the model its selection was made under. *)
type decision

(** [decision sel] records the answer of [sel], a selection {!select}
    or {!of_decision} returned. *)
val decision : selection -> decision

(** [decision_bytes d] is the length of [d]'s packed string. *)
val decision_bytes : decision -> int

(** [of_decision model d] is the selection [d] was recorded from,
    field for field, when that selection was [select model obs]: it
    builds the signature table and registry of [d]'s effective links
    with [select]'s code, recomputes the kept variables' seed pools,
    resolves every row's variables from its paths through the resolver
    [select] uses, and builds the factor and readout from those.  It
    skips the seed, independence, basis and grow phases, so it costs a
    fraction of a [select] (span [algorithm1.rebuild]).  The counter
    [alg1_registries] counts the registries [select] and [of_decision]
    build.  Nothing may write to the selection it returns, which the
    streaming engine may keep and hand to later estimates; nothing
    does: after {!select} or {!of_decision} returns, a selection's
    registry, rows, flags, factor and readout are only read
    ({!Prob_engine}, {!Readout}, {!Correlation_complete} and the
    streaming engine read them), and its registry is finished
    ({!Eqn.finish}): it keeps no signature table and refuses new
    variables.
    @raise Invalid_argument if the registry does not match [d] or a
    row does not resolve over it (a selection of another model, or
    made under another [config]). *)
val of_decision : Model.t -> decision -> selection

(** [sort_grow_order ~shift keys] sorts, in place, keys that pack a
    weight above [shift] bits and a variable below, by decreasing
    weight: the order the grow phase tries variables in
    (SortByHammingWeight).  It is Stdlib's [Array.sort] heap sort made
    monomorphic, so it leaves the permutation [Array.sort] leaves on
    the (variable, weight) pairs compared by weight alone, ties
    included. *)
val sort_grow_order : shift:int -> int array -> unit

(** [n_identifiable sel] counts identifiable variables. *)
val n_identifiable : selection -> int
