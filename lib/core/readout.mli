(** The readout plan of a selection: how each link's congestion
    probability is read off the solved system (paper §5.3–5.4).

    Which variable a link is read from, whether it is identifiable, and
    which witness paths and variable pairs its chain-link fallback may
    consult depend only on the selection — the model, the effective
    links, the registry and the per-variable identifiability flags —
    not on the right-hand side.  {!build} decides all of it once per
    selection; {!Prob_engine.link_marginal_with} then only does
    per-solve arithmetic on the solution and the window's counts, and
    {!Prob_engine.link_identifiable} reads a flag.  The plan is also the
    "why this number" record of a link's marginal: the variable it comes
    from and the paths and variables that can move it. *)

(** A chain link: effective, but its singleton is not a registered
    variable, so its marginal falls back on the smallest registered
    subset containing it. *)
type chain = {
  var : int;
      (** the smallest registered variable containing the link (the
          first in registry order among equally small ones) *)
  size : int;  (** that variable's number of links, at least 2 *)
  witnesses : int array array;
      (** clean witness pairs [[|p; q|]], one per other link [x] of the
          variable's subset that has one, in subset order: the first pair
          in sweep order ([p] over the link's paths, [q] over [x]'s, both
          ascending) where [p] avoids [x], [q] avoids the link, and the
          two paths share no other effective link *)
  quotients : int array;
      (** flattened pairs [v; vb] in ascending [v]: every identifiable
          variable [v] of size at least 2 containing the link whose
          subset minus the link is an identifiable variable [vb] *)
}

type link =
  | Certified_good  (** not potentially congested: marginal 0 *)
  | Uncovered
      (** potentially congested but in no registered variable: marginal
          0, not identifiable *)
  | Singleton of int
      (** its singleton is registered variable [v]: identifiable iff [v]
          is *)
  | Chain of chain  (** read through {!chain}, never identifiable *)

type t = {
  entries : link array;  (** one entry per link of the model *)
  link_identifiable : bool array;
      (** per link: whether the marginal read through its entry is
          uniquely determined — a certified-good link is, a singleton is
          iff its variable is, uncovered and chain links are not *)
}

(** [build model ~effective registry ~identifiable] is the plan for a
    selection over [registry] whose variable [v] is identifiable iff
    [identifiable.(v)]. *)
val build :
  Model.t ->
  effective:Tomo_util.Bitset.t ->
  Eqn.registry ->
  identifiable:bool array ->
  t
