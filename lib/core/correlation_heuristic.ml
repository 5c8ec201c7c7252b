module Nullspace = Tomo_linalg.Nullspace

let compute model obs =
  let effective = Subsets.effective_links model obs in
  let registry = Eqn.registry (Signatures.build model ~effective) in
  let resolver = Eqn.resolver registry in
  let pools = Baseline_rows.pools model ~effective in
  let rows = ref [] in
  Array.iter
    (fun paths ->
      match Eqn.row_grow resolver ~paths with
      | Some row -> rows := row :: !rows
      | None -> ())
    pools;
  let rows = Array.of_list (List.rev !rows) in
  let n_vars = Eqn.n_vars registry in
  (* Null space over the full (redundant) system: dependent rows leave it
     unchanged, so feeding every row through the in-place tracker is
     exact — and its witness prefilter rejects the redundant bulk of the
     baseline pool in O(nnz) per row instead of O(nnz · p). *)
  let tr = Nullspace.tracker n_vars in
  Array.iter (fun row -> ignore (Nullspace.add_incidence tr row.Eqn.vars)) rows;
  let identifiable = Nullspace.determined tr in
  let selection =
    {
      Algorithm1.model;
      effective;
      registry;
      rows;
      seeded = Tomo_util.Bitset.create (Eqn.n_vars registry);
      nullity = Nullspace.dim tr;
      identifiable;
      (* Redundant rows with inconsistent right-hand sides: A·Aᵀ is
         singular, so the pool is solved by least squares. *)
      factor = None;
      readout = Readout.build model ~effective registry ~identifiable;
    }
  in
  Eqn.finish registry;
  let engine = Prob_engine.solve selection obs in
  let n_links = model.Model.n_links in
  (* The IMC'10 heuristic reports per-link probabilities with the crude
     whole-subset rule for unexpressible singletons; Correlation-complete
     refines that (the adaptive fallback) — one of the reasons it does
     better on sparse topologies. *)
  let marginals =
    Array.init n_links (Prob_engine.link_marginal_with `Whole engine)
  in
  ( {
      Pc_result.marginals;
      identifiable = selection.Algorithm1.readout.Readout.link_identifiable;
      effective;
      n_vars;
      n_rows = Array.length rows;
    },
    engine )
