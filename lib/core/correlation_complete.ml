let compute ?config model obs =
  let selection = Algorithm1.select ?config model obs in
  let engine = Prob_engine.solve selection obs in
  ( {
      Pc_result.marginals = Prob_engine.link_marginals engine;
      identifiable = selection.Algorithm1.readout.Readout.link_identifiable;
      effective = selection.Algorithm1.effective;
      n_vars = Eqn.n_vars selection.Algorithm1.registry;
      n_rows = Array.length selection.Algorithm1.rows;
    },
    engine )
