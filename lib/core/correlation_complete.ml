let compute ?config model obs =
  let selection = Algorithm1.select ?config model obs in
  let engine = Prob_engine.solve selection obs in
  let n_links = model.Model.n_links in
  let marginals = Array.init n_links (Prob_engine.link_marginal engine) in
  ( {
      Pc_result.marginals;
      identifiable = selection.Algorithm1.readout.Readout.link_identifiable;
      effective = selection.Algorithm1.effective;
      n_vars = Eqn.n_vars selection.Algorithm1.registry;
      n_rows = Array.length selection.Algorithm1.rows;
    },
    engine )
