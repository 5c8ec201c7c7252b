(* The paper's figures and tables, and the ablation experiments:
   fig3, fig4a-d, all, table2, ablation, fallback, probes, convergence.

     tomo_cli fig3 --scale medium --seed 1 --seeds 3 --csv out/

   `--seeds N` averages fig3, fig4a and fig4b over N independently
   generated topologies (seed, seed+1, ...); the other experiments run
   one topology and do not take the flag. *)

open Cmdliner
open Common
module Fig3 = Tomo_experiments.Fig3
module Fig4 = Tomo_experiments.Fig4
module Render = Tomo_experiments.Render
module Ablation = Tomo_experiments.Ablation

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:
          "Also write the figure's data as CSV files into $(docv) \
           (created if missing). Applies to fig3, fig4a-d and all.")

let seed_list seed n = List.init n (fun i -> seed + i)

let announce ?(seeds = 1) name scale seed =
  Format.fprintf ppf "Running %s (scale=%s, seed=%d%s)...@." name
    (W.scale_to_string scale) seed
    (if seeds > 1 then Printf.sprintf ", %d seeds averaged" seeds else "")

(* Write [x] with [render] as [name] in the --csv directory, if any. *)
let write_csv csv name render x =
  Option.iter
    (fun dir ->
      mkdir_p dir;
      render (Filename.concat dir name) x)
    csv

let fig3 scale seed seeds csv () =
  announce "Figure 3" scale seed ~seeds;
  let rows = Fig3.run_averaged ~scale ~seeds:(seed_list seed seeds) in
  Render.fig3 ppf rows;
  write_csv csv "fig3.csv" Render.fig3_csv rows

let fig4_mae topology title csv_name scale seed seeds csv () =
  announce title scale seed ~seeds;
  let rows =
    Fig4.run_mae_averaged ~topology ~scale ~seeds:(seed_list seed seeds)
  in
  Render.fig4_mae ppf ~title rows;
  write_csv csv csv_name Render.fig4_mae_csv rows

let fig4a =
  fig4_mae W.Brite
    "Figure 4(a): mean absolute error of link congestion probability \
     (Brite)"
    "fig4a.csv"

let fig4b =
  fig4_mae W.Sparse
    "Figure 4(b): mean absolute error of link congestion probability \
     (Sparse)"
    "fig4b.csv"

let fig4c scale seed csv () =
  announce "Figure 4(c)" scale seed;
  let curves = Fig4.run_cdf ~scale ~seed ~steps:10 in
  Render.fig4_cdf ppf curves;
  write_csv csv "fig4c.csv" Render.fig4_cdf_csv curves

let fig4d scale seed csv () =
  announce "Figure 4(d)" scale seed;
  let cells = Fig4.run_subsets ~scale ~seed in
  Render.fig4_subsets ppf cells;
  write_csv csv "fig4d.csv" Render.fig4_subsets_csv cells

let all scale seed seeds csv () =
  List.iter
    (fun figure -> figure scale seed seeds csv ())
    [ fig3; fig4a; fig4b ];
  fig4c scale seed csv ();
  fig4d scale seed csv ();
  Render.table2 ppf

let ablation scale seed () =
  announce "subset-size ablation" scale seed;
  Ablation.render_subset_rows ppf
    (Ablation.subset_size_sweep ~scale ~seed ~sizes:[ 1; 2; 3; 4 ])

let fallback scale seed () =
  announce "fallback-strategy ablation" scale seed;
  Ablation.render_fallback_rows ppf (Ablation.fallback_sweep ~scale ~seed)

let probes scale seed () =
  announce "probing sensitivity" scale seed;
  Ablation.render_probe_rows ppf
    (Ablation.probe_sweep ~scale ~seed ~budgets:[ 1600; 400; 100; 25 ])

let convergence scale seed () =
  announce "estimation convergence" scale seed;
  Ablation.render_interval_rows ppf
    (Ablation.interval_sweep ~scale ~seed
       ~lengths:[ 50; 100; 200; 400; 800; 1600 ])

let cmds =
  let figure f = Term.(experiment f $ csv_arg)
  and averaged_figure f = Term.(averaged f $ csv_arg) in
  [
    cmd "fig3" "Figure 3: Boolean-Inference accuracy (both panels)."
      (averaged_figure fig3);
    cmd "fig4a" "Figure 4(a): PC error on Brite topologies."
      (averaged_figure fig4a);
    cmd "fig4b" "Figure 4(b): PC error on Sparse topologies."
      (averaged_figure fig4b);
    cmd "fig4c" "Figure 4(c): error CDF (No Independence, Sparse)."
      (figure fig4c);
    cmd "fig4d" "Figure 4(d): links vs correlation subsets." (figure fig4d);
    cmd "all" "Run every figure and table." (averaged_figure all);
    ( Cmd.info "table2" ~doc:"Print the paper's Table 2 (static).",
      Term.const (fun () -> Render.table2 ppf) );
    cmd "ablation" "Subset-size budget ablation (§4)." (experiment ablation);
    cmd "fallback" "Chain-link fallback strategy ablation."
      (experiment fallback);
    cmd "probes" "E2E-Monitoring sensitivity under packet probing."
      (experiment probes);
    cmd "convergence" "Accuracy vs experiment length."
      (experiment convergence);
  ]
