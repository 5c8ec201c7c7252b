let hr ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let fig3 ppf rows =
  let algs = Fig3.algorithms in
  let width = 26 + (24 * List.length algs) in
  let header title =
    Format.fprintf ppf "@.%s@." title;
    hr ppf width;
    Format.fprintf ppf "%-26s" "Scenario";
    List.iter
      (fun a -> Format.fprintf ppf "%24s" (Fig3.algorithm_to_string a))
      algs;
    Format.fprintf ppf "@.";
    hr ppf width
  in
  header "Figure 3(a): Detection Rate";
  List.iter
    (fun (r : Fig3.row) ->
      Format.fprintf ppf "%-26s" r.Fig3.label;
      List.iter
        (fun (_, c) -> Format.fprintf ppf "%24.3f" c.Fig3.detection)
        r.Fig3.cells;
      Format.fprintf ppf "@.")
    rows;
  header "Figure 3(b): False Positive Rate";
  List.iter
    (fun (r : Fig3.row) ->
      Format.fprintf ppf "%-26s" r.Fig3.label;
      List.iter
        (fun (_, c) -> Format.fprintf ppf "%24.3f" c.Fig3.false_positive)
        r.Fig3.cells;
      Format.fprintf ppf "@.")
    rows

let fig4_mae ppf ~title rows =
  let algs = Fig4.algorithms in
  let width = 26 + (24 * List.length algs) in
  Format.fprintf ppf "@.%s@." title;
  hr ppf width;
  Format.fprintf ppf "%-26s" "Scenario";
  List.iter
    (fun a -> Format.fprintf ppf "%24s" (Fig4.algorithm_to_string a))
    algs;
  Format.fprintf ppf "@.";
  hr ppf width;
  List.iter
    (fun (r : Fig4.mae_row) ->
      Format.fprintf ppf "%-26s" r.Fig4.label;
      List.iter (fun (_, v) -> Format.fprintf ppf "%24.4f" v) r.Fig4.cells;
      Format.fprintf ppf "@.")
    rows

let fig4_cdf ppf curves =
  Format.fprintf ppf
    "@.Figure 4(c): CDF of the absolute error (No Independence, Sparse)@.";
  hr ppf 70;
  Format.fprintf ppf "%-12s" "abs. error";
  List.iter
    (fun (a, _) -> Format.fprintf ppf "%24s" (Fig4.algorithm_to_string a))
    curves;
  Format.fprintf ppf "@.";
  hr ppf 70;
  match curves with
  | [] -> ()
  | (_, first) :: _ ->
      List.iteri
        (fun i (x, _) ->
          Format.fprintf ppf "%-12.2f" x;
          List.iter
            (fun (_, curve) ->
              let _, y = List.nth curve i in
              Format.fprintf ppf "%24.3f" y)
            curves;
          Format.fprintf ppf "@.")
        first

let fig4_subsets ppf cells =
  Format.fprintf ppf
    "@.Figure 4(d): Correlation-complete, links vs correlation subsets \
     (No Independence)@.";
  hr ppf 78;
  Format.fprintf ppf "%-10s%18s%24s%26s@." "Topology" "links MAE"
    "corr. subsets MAE" "subsets scored (size>=2)";
  hr ppf 78;
  List.iter
    (fun (label, c) ->
      Format.fprintf ppf "%-10s%18.4f%24.4f%26d@." label c.Fig4.links_mae
        c.Fig4.subsets_mae c.Fig4.n_subsets_scored)
    cells

let with_csv path f =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  f ppf;
  Format.pp_print_flush ppf ();
  Tomo_obs.Sink.write_atomic path (Buffer.contents b)

(* Quote a CSV field only when needed (labels contain no quotes). *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ s ^ "\""
  else s

let fig3_csv path rows =
  with_csv path (fun ppf ->
      Format.fprintf ppf "scenario,algorithm,detection,false_positive@.";
      List.iter
        (fun (r : Fig3.row) ->
          List.iter
            (fun (a, c) ->
              Format.fprintf ppf "%s,%s,%.6f,%.6f@."
                (csv_field r.Fig3.label)
                (Fig3.algorithm_to_string a)
                c.Fig3.detection c.Fig3.false_positive)
            r.Fig3.cells)
        rows)

let fig4_mae_csv path rows =
  with_csv path (fun ppf ->
      Format.fprintf ppf "scenario,algorithm,mae@.";
      List.iter
        (fun (r : Fig4.mae_row) ->
          List.iter
            (fun (a, v) ->
              Format.fprintf ppf "%s,%s,%.6f@."
                (csv_field r.Fig4.label)
                (Fig4.algorithm_to_string a)
                v)
            r.Fig4.cells)
        rows)

let fig4_cdf_csv path curves =
  with_csv path (fun ppf ->
      Format.fprintf ppf "algorithm,abs_error,cdf@.";
      List.iter
        (fun (a, curve) ->
          List.iter
            (fun (x, y) ->
              Format.fprintf ppf "%s,%.6f,%.6f@."
                (Fig4.algorithm_to_string a)
                x y)
            curve)
        curves)

let fig4_subsets_csv path cells =
  with_csv path (fun ppf ->
      Format.fprintf ppf "topology,links_mae,subsets_mae,n_subsets_scored@.";
      List.iter
        (fun (label, c) ->
          Format.fprintf ppf "%s,%.6f,%.6f,%d@." (csv_field label)
            c.Fig4.links_mae c.Fig4.subsets_mae c.Fig4.n_subsets_scored)
        cells)

let table2 ppf =
  let rows =
    [
      ("Separability", [ "x"; "x"; "x"; "x"; "x" ]);
      ("E2E Monitoring", [ "x"; "x"; "x"; "x"; "x" ]);
      ("Homogeneity", [ "x"; ""; ""; ""; "" ]);
      ("Independence", [ ""; "x"; "x"; ""; "" ]);
      ("Correlation Sets", [ ""; ""; ""; "x"; "x" ]);
      ("Identifiability", [ "x"; "x"; "x"; ""; "" ]);
      ("Identifiability++", [ ""; ""; ""; "x"; "x" ]);
      ("Other approx./heuristic", [ "x"; ""; "x"; ""; "x" ]);
    ]
  in
  Format.fprintf ppf
    "@.Table 2: Sources of inaccuracy for Boolean Inference algorithms@.";
  hr ppf 100;
  Format.fprintf ppf "%-26s%10s%16s%16s%16s%16s@." "" "Sparsity"
    "B-Indep. S1" "B-Indep. S2" "B-Corr. S1" "B-Corr. S2";
  hr ppf 100;
  List.iter
    (fun (label, marks) ->
      Format.fprintf ppf "%-26s" label;
      List.iteri
        (fun i m ->
          Format.fprintf ppf "%*s" (if i = 0 then 10 else 16) m)
        marks;
      Format.fprintf ppf "@.")
    rows;
  Format.fprintf ppf
    "(S1 = Probability Computation step, S2 = Probabilistic Inference \
     step)@."
