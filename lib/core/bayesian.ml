module Bitset = Tomo_util.Bitset

let clamp_p p = min (1.0 -. 1e-6) (max 1e-6 p)

(* Links consistent with this interval's observation: on some congested
   path and on no good path. Links with no path at all are unconstrained
   and never inferred. *)
let candidate_links model ~congested_paths ~good_paths =
  let good_links =
    Model.links_of_paths model (Array.of_list (Bitset.to_list good_paths))
  in
  let acc = ref [] in
  for e = model.Model.n_links - 1 downto 0 do
    if
      (not (Bitset.get good_links e))
      && not (Bitset.disjoint model.Model.link_paths.(e) congested_paths)
    then acc := e :: !acc
  done;
  Array.of_list !acc

let infer_independence ?(include_likely = true) model ~marginals
    ~congested_paths ~good_paths =
  let candidates = candidate_links model ~congested_paths ~good_paths in
  let solution = Bitset.create model.Model.n_links in
  let uncovered = Bitset.copy congested_paths in
  (* MAP under independence: a consistent link with p > 1/2 raises the
     posterior whether or not it covers anything new, so CLINK's optimum
     includes it. This is exactly where wrong marginals (correlated
     links mis-learned by the Independence PC step) turn into false
     positives. The correlation-aware variant seeds without this rule
     and lets the joint-probability hill-climb decide instead. *)
  if include_likely then
    Array.iter
      (fun e ->
        if clamp_p marginals.(e) > 0.5 then begin
          Bitset.set solution e;
          Bitset.diff_into ~into:uncovered model.Model.link_paths.(e)
        end)
      candidates;
  (* Greedy weighted cover: cost log((1-p)/p) per link (clamped to a
     small positive value for p >= 1/2, so near-certain links are picked
     first), benefit = newly covered congested paths. *)
  let continue_ = ref true in
  while !continue_ && not (Bitset.is_empty uncovered) do
    let best = ref (-1) and best_ratio = ref neg_infinity in
    Array.iter
      (fun e ->
        if not (Bitset.get solution e) then begin
          let cover =
            Bitset.count_inter model.Model.link_paths.(e) uncovered
          in
          if cover > 0 then begin
            let p = clamp_p marginals.(e) in
            let cost = max 1e-9 (log ((1.0 -. p) /. p)) in
            let ratio = float_of_int cover /. cost in
            if ratio > !best_ratio then begin
              best := e;
              best_ratio := ratio
            end
          end
        end)
      candidates;
    if !best < 0 then continue_ := false
    else begin
      Bitset.set solution !best;
      Bitset.diff_into ~into:uncovered model.Model.link_paths.(!best)
    end
  done;
  (* Prune: drop links made redundant by later picks, most unlikely
     first; each drop strictly improves the likelihood (p < 1/2). *)
  let members = Bitset.to_list solution in
  let by_cost =
    List.sort
      (fun a b -> compare marginals.(a) marginals.(b))
      (List.filter (fun e -> clamp_p marginals.(e) <= 0.5) members)
  in
  List.iter
    (fun e ->
      Bitset.clear solution e;
      (* Still a cover? Every congested path must retain a solution
         link. *)
      let still_covered =
        Bitset.fold
          (fun ok p ->
            ok && not (Bitset.disjoint model.Model.path_links.(p) solution))
          true congested_paths
      in
      if not still_covered then Bitset.set solution e)
    by_cost;
  solution

let effective_of_corr model ~engine c =
  let eff = engine.Prob_engine.selection.Algorithm1.effective in
  Array.of_list
    (List.filter
       (fun e -> Bitset.get eff e)
       (Array.to_list (Model.corr_set_links model c)))

let corr_logprob model ~engine solution c =
  let eff_links = effective_of_corr model ~engine c in
  if Array.length eff_links = 0 then 0.0
  else begin
    let congested, good =
      Array.to_list eff_links
      |> List.partition (fun e -> Bitset.get solution e)
    in
    Prob_engine.pattern_logprob engine ~corr:c
      ~congested:(Array.of_list congested) ~good:(Array.of_list good)
  end

let solution_logprob model ~engine solution =
  let total = ref 0.0 in
  for c = 0 to Model.n_corr_sets model - 1 do
    total := !total +. corr_logprob model ~engine solution c
  done;
  !total

let infer_correlation model ~engine ~congested_paths ~good_paths =
  let marginals = Prob_engine.link_marginals engine in
  let solution =
    infer_independence ~include_likely:false model ~marginals
      ~congested_paths ~good_paths
  in
  let candidates = candidate_links model ~congested_paths ~good_paths in
  (* Hill-climb on the correlation-aware likelihood. Only the moved
     link's correlation set changes, so score deltas are local. *)
  let contrib =
    Array.init (Model.n_corr_sets model) (fun c ->
        corr_logprob model ~engine solution c)
  in
  let covers_without e =
    Bitset.clear solution e;
    let ok =
      Bitset.fold
        (fun ok p ->
          ok && not (Bitset.disjoint model.Model.path_links.(p) solution))
        true congested_paths
    in
    Bitset.set solution e;
    ok
  in
  let improved = ref true and passes = ref 0 in
  while !improved && !passes < 4 do
    improved := false;
    incr passes;
    Array.iter
      (fun e ->
        let c = model.Model.corr_of_link.(e) in
        let was = Bitset.get solution e in
        (* Removals are always on the table; additions only when driven
           by correlation evidence — another link of the same set is
           already blamed — so the independence fallback cannot inflate
           the solution with merely-likely links. *)
        let allowed =
          if was then covers_without e
          else
            Array.exists
              (fun e' -> e' <> e && Bitset.get solution e')
              (Model.corr_set_links model c)
        in
        if allowed then begin
          Bitset.assign solution e (not was);
          let after = corr_logprob model ~engine solution c in
          if after > contrib.(c) +. 1e-12 then begin
            contrib.(c) <- after;
            improved := true
          end
          else Bitset.assign solution e was
        end)
      candidates
  done;
  solution
