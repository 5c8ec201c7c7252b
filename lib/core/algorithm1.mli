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
      space by one batched sparse rref, not row-by-row updates;
    + maintain a null-space basis [N] of the selected system and
      repeatedly add a path set whose row reduces the null space, trying
      subsets in decreasing Hamming weight of their [N]-row and, within a
      subset [E], candidate path sets [P ⊆ Paths(E) \ Paths(Ē)] in
      increasing size (lines 8–22); each accepted row updates [N]
      incrementally via Algorithm 2 ({!Tomo_linalg.Nullspace.update});
    + stop when [N] runs out of columns or no candidate makes progress.

    Because the row space only ever grows, a candidate row once found
    dependent stays dependent; each candidate is therefore visited at
    most once across all outer iterations (a per-subset cursor), which
    keeps the scan linear in the candidate budget. *)

type config = {
  max_subset_size : int;
      (** largest correlation-subset size enumerated as a target
          variable (default 3) *)
  limit_per_set : int;
      (** max target subsets per correlation set (default 500) *)
  max_pathset_size : int;
      (** largest candidate path set tried per subset (default 8;
          the paper enumerates all subset sizes, accepting a [2^{n₂}]
          term — this is the truncation that keeps it practical) *)
  max_candidates_per_subset : int;
      (** candidate path sets enumerated per subset (default 300) *)
  tol : float;  (** numerical tolerance for rank decisions *)
  witness_k : int option;
      (** witness vectors for the independence prefilter ([None] = the
          tracker's 2).  Selections are bit-identical whatever the
          value — the prefilter only short-circuits dependent rows — so
          this is a test reference switch: [Some 0] runs the exact
          dependence test alone, which the witness parity properties
          compare the default against. *)
}

val default_config : config

type selection = {
  model : Model.t;
  effective : Tomo_util.Bitset.t;  (** potentially congested links *)
  registry : Eqn.registry;
  rows : Eqn.row array;  (** the selected, linearly independent system *)
  nullspace : Tomo_linalg.Matrix.t;
      (** basis of the null space of the selected system; a variable is
          identifiable iff its row here is zero *)
  identifiable : bool array;
      (** per variable: its null-space row is zero
          ({!identifiable_flags}), decided once per selection *)
  factor : Tomo_linalg.Sparse_chol.t option;
      (** [Some] iff the rows are linearly independent, as Algorithm 1
          guarantees: their factorized [A·Aᵀ], so every solve against
          this selection is two triangular solves.  [None] for a
          redundant, possibly inconsistent row pool
          (Correlation-heuristic), which {!Prob_engine} solves by least
          squares instead. *)
}

(** [select ?config model obs] runs the algorithm.  [obs] is only used to
    decide which paths are always good (potentially-congested analysis);
    the selection itself is purely structural.  The selected rows are
    factorized ({!Tomo_linalg.Sparse_chol}) before returning. *)
val select : ?config:config -> Model.t -> Observations.t -> selection

(** [identifiable_flags registry nullspace] marks each registered
    variable whose row of the null-space basis [nullspace] is zero. *)
val identifiable_flags : Eqn.registry -> Tomo_linalg.Matrix.t -> bool array

(** [n_identifiable sel] counts identifiable variables. *)
val n_identifiable : selection -> int
