module Bitset = Tomo_util.Bitset
module Scenario = Tomo_netsim.Scenario
module Run = Tomo_netsim.Run
module Obs = Tomo_obs
module Pool = Tomo_par.Pool

type subset_row = {
  max_subset_size : int;
  n_vars : int;
  n_rows : int;
  n_identifiable : int;
  links_mae : float;
  seconds : float;
}

let subset_size_sweep ~scale ~seed ~sizes =
  let w =
    Workload.prepare
      (Workload.spec ~scale ~seed Workload.Brite Scenario.No_independence)
  in
  (* Sizes share the prepared workload read-only; each cell's timing is
     its own monotonic interval, so parallel rows stay meaningful per
     row. *)
  Pool.map_list
    (fun size ->
      Obs.Trace.with_span "ablation.subset_size"
        ~attrs:[ ("max_subset_size", string_of_int size) ]
      @@ fun () ->
      let config =
        { Tomo.Algorithm1.max_subset_size = size }
      in
      let t0 = Obs.Clock.now () in
      let r, engine =
        Tomo.Correlation_complete.compute ~config w.Workload.model
          w.Workload.obs
      in
      let seconds = Obs.Clock.now () -. t0 in
      let n_identifiable =
        Tomo.Algorithm1.n_identifiable engine.Tomo.Prob_engine.selection
      in
      {
        max_subset_size = size;
        n_vars = r.Tomo.Pc_result.n_vars;
        n_rows = r.Tomo.Pc_result.n_rows;
        n_identifiable;
        links_mae = Fig4.mean_link_error w r;
        seconds;
      })
    sizes

type probe_row = {
  probes_per_path : int option;
  status_flip_frac : float;
  links_mae : float;
}

let probe_sweep ~scale ~seed ~budgets =
  let ideal =
    Workload.prepare (Workload.spec ~scale ~seed Workload.Brite Scenario.Random)
  in
  let flip_frac (w : Workload.prepared) =
    let n_paths = Array.length w.Workload.run.Run.path_good in
    let t = w.Workload.run.Run.t_intervals in
    let flips = ref 0 in
    Array.iteri
      (fun p row ->
        let ideal_row = ideal.Workload.run.Run.path_good.(p) in
        for i = 0 to t - 1 do
          if Bitset.get row i <> Bitset.get ideal_row i then incr flips
        done)
      w.Workload.run.Run.path_good;
    float_of_int !flips /. float_of_int (n_paths * t)
  in
  let cell (w : Workload.prepared) =
    let r, _ = Tomo.Correlation_complete.compute w.Workload.model w.Workload.obs in
    Fig4.mean_link_error w r
  in
  let ideal_row =
    {
      probes_per_path = None;
      status_flip_frac = 0.0;
      links_mae = cell ideal;
    }
  in
  ideal_row
  :: Pool.map_list
       (fun budget ->
         Obs.Trace.with_span "ablation.probe_budget"
           ~attrs:[ ("probes_per_path", string_of_int budget) ]
         @@ fun () ->
         let w =
           Workload.prepare
             (Workload.spec ~scale ~seed
                ~measurement:(Run.Probes { per_path = budget; f = 0.01 })
                Workload.Brite Scenario.Random)
         in
         {
           probes_per_path = Some budget;
           status_flip_frac = flip_frac w;
           links_mae = cell w;
         })
       budgets

type fallback_row = {
  strategy : string;
  fallback_links : int;
  fallback_mae : float;
  overall_mae : float;
}

let fallback_sweep ~scale ~seed =
  let w =
    Workload.prepare
      (Workload.spec ~scale ~seed Workload.Sparse Scenario.No_independence)
  in
  let _, engine =
    Tomo.Correlation_complete.compute w.Workload.model w.Workload.obs
  in
  let eff =
    Bitset.to_list engine.Tomo.Prob_engine.selection.Tomo.Algorithm1.effective
  in
  List.map
    (fun (name, strategy) ->
      let est e = Tomo.Prob_engine.link_marginal_with strategy engine e in
      let fallback_errs =
        List.filter_map
          (fun e ->
            if Tomo.Prob_engine.link_identifiable engine e then None
            else Some (abs_float (est e -. w.Workload.truth_marginals.(e))))
          eff
      in
      let overall_errs =
        List.map
          (fun e -> abs_float (est e -. w.Workload.truth_marginals.(e)))
          eff
      in
      let mean = function
        | [] -> 0.0
        | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
      in
      {
        strategy = name;
        fallback_links = List.length fallback_errs;
        fallback_mae = mean fallback_errs;
        overall_mae = mean overall_errs;
      })
    [ ("whole", `Whole); ("split", `Split); ("adaptive", `Adaptive) ]

type interval_row = { t_intervals : int; links_mae : float }

let interval_sweep ~scale ~seed ~lengths =
  Pool.map_list
    (fun t ->
      Obs.Trace.with_span "ablation.interval_length"
        ~attrs:[ ("t_intervals", string_of_int t) ]
      @@ fun () ->
      let w =
        Workload.prepare
          (Workload.spec ~scale ~seed ~t_override:t Workload.Brite
             Scenario.No_independence)
      in
      let r, _ =
        Tomo.Correlation_complete.compute w.Workload.model w.Workload.obs
      in
      { t_intervals = t; links_mae = Fig4.mean_link_error w r })
    lengths

let hr ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let render_subset_rows ppf rows =
  Format.fprintf ppf
    "@.Ablation: subset-size budget (§4 complexity control) — \
     Correlation-complete,@.No-Independence, Brite@.";
  hr ppf 78;
  Format.fprintf ppf "%-12s%10s%10s%16s%14s%12s@." "max |E|" "vars" "rows"
    "identifiable" "links MAE" "seconds";
  hr ppf 78;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12d%10d%10d%16d%14.4f%12.2f@."
        r.max_subset_size r.n_vars r.n_rows r.n_identifiable r.links_mae
        r.seconds)
    rows

let render_fallback_rows ppf rows =
  Format.fprintf ppf
    "@.Ablation: chain-link fallback strategy — Correlation-complete,@.\
     No-Independence, Sparse@.";
  hr ppf 70;
  Format.fprintf ppf "%-12s%18s%18s%16s@." "strategy" "fallback links"
    "fallback MAE" "overall MAE";
  hr ppf 70;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s%18d%18.4f%16.4f@." r.strategy
        r.fallback_links r.fallback_mae r.overall_mae)
    rows

let render_probe_rows ppf rows =
  Format.fprintf ppf
    "@.Sensitivity: E2E Monitoring under packet probing — \
     Correlation-complete, Random, Brite@.";
  hr ppf 64;
  Format.fprintf ppf "%-18s%22s%16s@." "probes/path" "status flips"
    "links MAE";
  hr ppf 64;
  List.iter
    (fun r ->
      (match r.probes_per_path with
      | None -> Format.fprintf ppf "%-18s" "ideal"
      | Some b -> Format.fprintf ppf "%-18d" b);
      Format.fprintf ppf "%21.2f%%%16.4f@." (100.0 *. r.status_flip_frac)
        r.links_mae)
    rows

let render_interval_rows ppf rows =
  Format.fprintf ppf
    "@.Convergence: accuracy vs experiment length — Correlation-complete,@.\
     No-Independence, Brite@.";
  hr ppf 40;
  Format.fprintf ppf "%-14s%16s@." "intervals" "links MAE";
  hr ppf 40;
  List.iter
    (fun r -> Format.fprintf ppf "%-14d%16.4f@." r.t_intervals r.links_mae)
    rows
