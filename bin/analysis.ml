(* Looking at one generated workload: the operator's peer report, the
   topology statistics and the structural identifiability analysis. *)

open Common

let report scale seed () =
  Format.fprintf ppf
    "Monitoring report: peers of the source ISP (scale=%s, seed=%d)@."
    (W.scale_to_string scale) seed;
  let w =
    W.prepare (W.spec ~scale ~seed W.Brite Tomo_netsim.Scenario.Random)
  in
  let _, engine = Tomo.Correlation_complete.compute w.W.model w.W.obs in
  let peers =
    Tomo_experiments.Peer_report.build ~model:w.W.model ~engine
      ~overlay:w.W.overlay ~resamples:30
      ~rng:(Tomo_util.Rng.create (seed + 1))
  in
  Tomo_experiments.Peer_report.render ppf ~top:15 peers

let summary scale seed () =
  List.iter
    (fun topology ->
      let w =
        W.prepare (W.spec ~scale ~seed topology Tomo_netsim.Scenario.Random)
      in
      Format.fprintf ppf "@.%s topology:@.%a@."
        (W.topology_to_string topology)
        Tomo_topology.Overlay.pp_summary w.W.overlay)
    [ W.Brite; W.Sparse ]

let identifiability scale seed () =
  List.iter
    (fun topology ->
      let model = model_for scale seed topology in
      let effective = Tomo.Identifiability.covered_links model in
      let t = Tomo.Identifiability.analyze model ~effective in
      Format.fprintf ppf "@.%s topology (scale=%s, seed=%d):@.%a@."
        (W.topology_to_string topology)
        (W.scale_to_string scale) seed Tomo.Identifiability.pp t)
    [ W.Brite; W.Sparse ]

let cmds =
  [
    cmd "report" "Operator-facing peer congestion report (§1 scenario)."
      (experiment report);
    cmd "summary" "Print generated topology statistics." (experiment summary);
    cmd "identifiability"
      "Structural identifiability analysis of the generated topologies: \
       ambiguous links, per-correlation-set inducible-subset bounds."
      (experiment identifiability);
  ]
