(* Tests for the tomography algorithms: Algorithm 1 selection,
   Prob_engine solving, the three Probability Computation algorithms,
   Sparsity, Bayesian inference and metrics — against the paper's worked
   examples and against sampled data with known ground truth. *)

module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Model = Tomo.Model
module Observations = Tomo.Observations
module Subsets = Tomo.Subsets
module Eqn = Tomo.Eqn
module Signatures = Tomo.Signatures
module Algorithm1 = Tomo.Algorithm1
module Prob_engine = Tomo.Prob_engine
module Independence_pc = Tomo.Independence_pc
module Correlation_heuristic = Tomo.Correlation_heuristic
module Correlation_complete = Tomo.Correlation_complete
module Sparsity = Tomo.Sparsity
module Bayesian = Tomo.Bayesian
module Metrics = Tomo.Metrics
module Toy = Tomo.Toy
module Pc_result = Tomo.Pc_result
module W = Tomo_experiments.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))
let checkf tol = Alcotest.(check (float tol))

let e1, e2, e3, e4 = (Toy.e1, Toy.e2, Toy.e3, Toy.e4)
let p1, p2, p3 = (Toy.p1, Toy.p2, Toy.p3)

(* Sample toy observations from an explicit factor model:
   f1 -> {e1} with q1; fa -> {e2,e3} with qa (the correlation);
   fb -> {e2}; fc -> {e3}; f4 -> {e4}. *)
type toy_truth = { q1 : float; qa : float; qb : float; qc : float; q4 : float }

let toy_truth = { q1 = 0.2; qa = 0.3; qb = 0.25; qc = 0.15; q4 = 0.1 }

let toy_good_probs tt =
  (* Closed-form good probabilities of the correlation subsets. *)
  let g1 = 1.0 -. tt.q1 in
  let g2 = (1.0 -. tt.qa) *. (1.0 -. tt.qb) in
  let g3 = (1.0 -. tt.qa) *. (1.0 -. tt.qc) in
  let g23 = (1.0 -. tt.qa) *. (1.0 -. tt.qb) *. (1.0 -. tt.qc) in
  let g4 = 1.0 -. tt.q4 in
  (g1, g2, g3, g23, g4)

let sample_toy_states tt ~t ~seed =
  let rng = Rng.create seed in
  Array.init t (fun _ ->
      let f1 = Rng.bool rng ~p:tt.q1 in
      let fa = Rng.bool rng ~p:tt.qa in
      let fb = Rng.bool rng ~p:tt.qb in
      let fc = Rng.bool rng ~p:tt.qc in
      let f4 = Rng.bool rng ~p:tt.q4 in
      List.concat
        [
          (if f1 then [ e1 ] else []);
          (if fa || fb then [ e2 ] else []);
          (if fa || fc then [ e3 ] else []);
          (if f4 then [ e4 ] else []);
        ])

let toy_obs ?(t = 8000) ?(seed = 42) tt =
  Toy.observations ~interval_states:(sample_toy_states tt ~t ~seed)

(* ------------------------------------------------------------------ *)
(* Algorithm 1                                                         *)
(* ------------------------------------------------------------------ *)

let test_alg1_case1_full_rank () =
  (* Case 1 satisfies Identifiability++: the selected system must have
     full column rank over the paper's 5 unknowns. *)
  let m = Toy.case1 () in
  let obs = toy_obs toy_truth in
  let sel = Algorithm1.select m obs in
  check_int "5 unknowns (paper's Ê)" 5 (Eqn.n_vars sel.Algorithm1.registry);
  check_int "full rank: empty null space" 0 sel.Algorithm1.nullity;
  check_int "minimum equations = unknowns" 5
    (Array.length sel.Algorithm1.rows);
  check_int "all identifiable" 5 (Algorithm1.n_identifiable sel)

let test_alg1_case2_nonidentifiable () =
  (* Case 2 violates Identifiability++: {e1,e4} and {e2,e3} are traversed
     by the same paths. The system has 6 unknowns, reaches rank 5, and no
     unknown is individually identifiable. *)
  let m = Toy.case2 () in
  let obs = toy_obs toy_truth in
  let sel = Algorithm1.select m obs in
  check_int "6 unknowns" 6 (Eqn.n_vars sel.Algorithm1.registry);
  check_int "nullity 1" 1 sel.Algorithm1.nullity;
  check_int "nothing identifiable" 0 (Algorithm1.n_identifiable sel)

let test_alg1_rows_are_independent () =
  (* The selection never contains a linearly dependent row: the number of
     rows equals the rank, i.e. vars - nullity. *)
  let m = Toy.case2 () in
  let obs = toy_obs toy_truth in
  let sel = Algorithm1.select m obs in
  check_int "rows = rank"
    (Eqn.n_vars sel.Algorithm1.registry - sel.Algorithm1.nullity)
    (Array.length sel.Algorithm1.rows)

let test_alg1_reports_equations_formed () =
  (* Algorithm 1 reports its work through the observability registry:
     with metrics enabled, a selection run advances equations_formed by
     one per kept equation. *)
  let c = Tomo_obs.Metrics.counter "equations_formed" in
  Tomo_obs.Metrics.set_enabled true;
  Tomo_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tomo_obs.Metrics.set_enabled false;
      Tomo_obs.Metrics.reset ())
    (fun () ->
      let m = Toy.case1 () in
      let obs = toy_obs toy_truth in
      let sel = Algorithm1.select m obs in
      check_bool "equations_formed >= 1" true
        (Tomo_obs.Metrics.counter_value c >= 1);
      check_int "equations_formed counts the kept equations"
        (Array.length sel.Algorithm1.rows)
        (Tomo_obs.Metrics.counter_value c);
      (* Solve health moved from the per-tick CGLS residual to the
         factorization, recorded once per selection. *)
      let counter name = Tomo_obs.Metrics.(counter_value (counter name)) in
      let hist name = Tomo_obs.Metrics.(histogram_stats (histogram name)) in
      check_int "one factorization" 1 (counter "sparse_chol_factorizations");
      check_int "no dropped rows" 0 (counter "sparse_chol_dropped_rows");
      let l_nnz = hist "sparse_chol_l_nnz" in
      check_int "L size observed once" 1 l_nnz.Tomo_obs.Metrics.count;
      check_bool "L holds at least the diagonal" true
        (l_nnz.Tomo_obs.Metrics.min_v
        >= float_of_int (Array.length sel.Algorithm1.rows));
      let ratio = hist "sparse_chol_pivot_ratio" in
      check_int "pivot ratio observed once" 1 ratio.Tomo_obs.Metrics.count;
      check_bool "pivot ratio >= 1" true (ratio.Tomo_obs.Metrics.min_v >= 1.0);
      let (_ : Prob_engine.t) = Prob_engine.solve sel obs in
      check_int "the solve runs no CGLS" 0 (counter "cgls_solves");
      check_int "no CGLS residual recorded" 0
        (hist "cgls_final_residual").Tomo_obs.Metrics.count;
      check_int "the solve does not refactor" 1
        (counter "sparse_chol_factorizations"))

(* The factorized solve against the least-squares one it replaced: on
   the small Brite and Sparse workloads, Correlation-complete's link
   marginals through the selection's factor match those of the same
   selection solved by CGLS (its factor removed) to 1e-8.  Both
   selections have hub columns, so the factor solves through its
   Woodbury core. *)
let test_factorized_matches_cgls () =
  List.iter
    (fun topology ->
      let w =
        W.prepare
          (W.spec ~scale:W.Small ~seed:3 topology Tomo_netsim.Scenario.Random)
      in
      let model = w.W.model and obs = w.W.obs in
      let r, engine = Correlation_complete.compute model obs in
      let sel = engine.Prob_engine.selection in
      (match sel.Algorithm1.factor with
      | Some f ->
          check_bool "hub columns split out of the factor" true
            (Tomo_linalg.Sparse_chol.dense_cols f > 0)
      | None -> Alcotest.fail "selection is not factorized");
      let cgls =
        Prob_engine.solve { sel with Algorithm1.factor = None } obs
      in
      Array.iteri
        (fun e m ->
          checkf 1e-8
            (Printf.sprintf "%s link %d"
               (W.topology_to_string topology) e)
            (Prob_engine.link_marginal cgls e) m)
        r.Pc_result.marginals)
    [ W.Brite; W.Sparse ]

let test_alg1_effective_restriction () =
  (* With p3 always good, only {e1} and {e2} remain unknowns (paper §5.2
     example) and both are identifiable. *)
  let m = Toy.case1 () in
  let obs = Toy.observations ~interval_states:[| [ e1 ]; [ e2 ]; [] |] in
  let sel = Algorithm1.select m obs in
  check_int "2 unknowns" 2 (Eqn.n_vars sel.Algorithm1.registry);
  check_int "both identifiable" 2 (Algorithm1.n_identifiable sel)

(* ------------------------------------------------------------------ *)
(* Prob_engine on the toy topology                                     *)
(* ------------------------------------------------------------------ *)

let solve_case1 ?(t = 8000) ?(seed = 42) () =
  let m = Toy.case1 () in
  let obs = toy_obs ~t ~seed toy_truth in
  let sel = Algorithm1.select m obs in
  (m, Prob_engine.solve sel obs)

let test_engine_recovers_good_probs () =
  let m, eng = solve_case1 () in
  let g1, g2, g3, g23, g4 = toy_good_probs toy_truth in
  let get corr links =
    match Prob_engine.good_prob eng (Subsets.make m ~corr links) with
    | Some g -> g
    | None -> Alcotest.fail "expected identifiable"
  in
  checkf 0.03 "G(e1)" g1 (get 0 [| e1 |]);
  checkf 0.03 "G(e2)" g2 (get 1 [| e2 |]);
  checkf 0.03 "G(e3)" g3 (get 1 [| e3 |]);
  checkf 0.03 "G(e2,e3)" g23 (get 1 [| e2; e3 |]);
  checkf 0.03 "G(e4)" g4 (get 2 [| e4 |])

let test_engine_link_marginals () =
  let _, eng = solve_case1 () in
  let g1, g2, g3, _, g4 = toy_good_probs toy_truth in
  checkf 0.03 "P(Xe1=1)" (1.0 -. g1) (Prob_engine.link_marginal eng e1);
  checkf 0.03 "P(Xe2=1)" (1.0 -. g2) (Prob_engine.link_marginal eng e2);
  checkf 0.03 "P(Xe3=1)" (1.0 -. g3) (Prob_engine.link_marginal eng e3);
  checkf 0.03 "P(Xe4=1)" (1.0 -. g4) (Prob_engine.link_marginal eng e4);
  List.iter
    (fun e ->
      check_bool "identifiable" true (Prob_engine.link_identifiable eng e))
    [ e1; e2; e3; e4 ]

let test_engine_congestion_prob () =
  (* P(e2, e3 both congested) = 1 - G2 - G3 + G23; and across correlation
     sets probabilities multiply. *)
  let m, eng = solve_case1 () in
  ignore m;
  let _, g2, g3, g23, g4 = toy_good_probs toy_truth in
  let truth_pair = 1.0 -. g2 -. g3 +. g23 in
  (match Prob_engine.congestion_prob eng ~corr:1 [| e2; e3 |] with
  | Some p -> checkf 0.03 "P(e2,e3 congested)" truth_pair p
  | None -> Alcotest.fail "pair should be identifiable");
  match Prob_engine.set_congestion_prob eng [| e2; e3; e4 |] with
  | Some p ->
      checkf 0.03 "cross-set product" (truth_pair *. (1.0 -. g4)) p
  | None -> Alcotest.fail "cross-set query should succeed"

let test_engine_case2_unidentifiable () =
  let m = Toy.case2 () in
  let obs = toy_obs toy_truth in
  let sel = Algorithm1.select m obs in
  let eng = Prob_engine.solve sel obs in
  (* The pair {e2,e3} exists as a variable but is not identifiable. *)
  (match Prob_engine.good_prob eng (Subsets.make m ~corr:1 [| e2; e3 |]) with
  | None -> ()
  | Some _ -> Alcotest.fail "Case 2 pair must not be identifiable");
  (* The minimum-norm estimate still exists. *)
  match Prob_engine.good_prob_est eng (Subsets.make m ~corr:1 [| e2; e3 |])
  with
  | Some g -> check_bool "estimate in range" true (g >= 0.0 && g <= 1.0)
  | None -> Alcotest.fail "estimate must exist"

let test_engine_always_good_marginal_zero () =
  let m = Toy.case1 () in
  let obs = Toy.observations ~interval_states:[| [ e1 ]; [ e2 ]; [] |] in
  let sel = Algorithm1.select m obs in
  let eng = Prob_engine.solve sel obs in
  checkf 1e-12 "e3 certified good" 0.0 (Prob_engine.link_marginal eng e3);
  checkf 1e-12 "e4 certified good" 0.0 (Prob_engine.link_marginal eng e4);
  check_bool "certified good counts as identifiable" true
    (Prob_engine.link_identifiable eng e3)

(* Given each row's all-good count, the table-read right-hand side
   solves to the same bits as [solve]'s per-row count and [log]. *)
let test_engine_solve_with_counts () =
  let m, eng = solve_case1 ~t:500 () in
  let sel = eng.Prob_engine.selection and obs = eng.Prob_engine.obs in
  let counts =
    Array.map
      (fun r -> Observations.all_good_count obs r.Eqn.paths)
      sel.Algorithm1.rows
  in
  let by_counts = Prob_engine.solve_with_counts sel obs ~counts in
  for e = 0 to m.Model.n_links - 1 do
    check_bool
      (Printf.sprintf "link %d bitwise" e)
      true
      (Int64.equal
         (Int64.bits_of_float (Prob_engine.link_marginal eng e))
         (Int64.bits_of_float (Prob_engine.link_marginal by_counts e)))
  done;
  Alcotest.check_raises "one count short"
    (Invalid_argument
       "Prob_engine.solve_with_counts: one count per row expected")
    (fun () ->
      ignore
        (Prob_engine.solve_with_counts sel obs
           ~counts:(Array.sub counts 0 (Array.length counts - 1))))

let test_engine_pattern_logprob () =
  let m, eng = solve_case1 () in
  ignore m;
  let _, g2, g3, g23, _ = toy_good_probs toy_truth in
  (* Pattern within corr set 1: e2 congested, e3 good:
     P = G(e3) - G(e2,e3). *)
  let lp =
    Prob_engine.pattern_logprob eng ~corr:1 ~congested:[| e2 |]
      ~good:[| e3 |]
  in
  checkf 0.1 "P(e2 cong, e3 good)" (log (g3 -. g23)) lp;
  (* Both good: log G23. *)
  let lp2 =
    Prob_engine.pattern_logprob eng ~corr:1 ~congested:[||]
      ~good:[| e2; e3 |]
  in
  checkf 0.1 "P(both good)" (log g23) lp2;
  ignore g2

(* ------------------------------------------------------------------ *)
(* Probability Computation baselines                                   *)
(* ------------------------------------------------------------------ *)

let test_independence_pc_uncorrelated () =
  (* Without correlation (qa = 0) Independence is consistent and must
     recover the marginals. *)
  let tt = { toy_truth with qa = 0.0 } in
  let m = Toy.case1 () in
  let obs = toy_obs ~t:8000 ~seed:7 tt in
  let r = Independence_pc.compute m obs in
  checkf 0.03 "e1" tt.q1 r.Pc_result.marginals.(e1);
  checkf 0.03 "e2" tt.qb r.Pc_result.marginals.(e2);
  checkf 0.03 "e3" tt.qc r.Pc_result.marginals.(e3);
  checkf 0.03 "e4" tt.q4 r.Pc_result.marginals.(e4)

let test_independence_pc_breaks_under_correlation () =
  (* §3.1: with e2, e3 strongly correlated the Independence equations are
     wrong. Correlation-complete must beat Independence on the correlated
     links. *)
  let tt = { q1 = 0.1; qa = 0.45; qb = 0.0; qc = 0.0; q4 = 0.1 } in
  let m = Toy.case1 () in
  let obs = toy_obs ~t:8000 ~seed:11 tt in
  let ind = Independence_pc.compute m obs in
  let cc, _ = Correlation_complete.compute m obs in
  let truth = [| tt.q1; tt.qa; tt.qa; tt.q4 |] in
  let err r =
    Metrics.mean_abs_error ~truth ~estimate:r.Pc_result.marginals
      ~over:[ e2; e3 ]
  in
  check_bool "correlation-complete beats independence on correlated pair"
    true
    (err cc < err ind)

let test_correlation_heuristic_runs () =
  let m = Toy.case1 () in
  let obs = toy_obs toy_truth in
  let r, _eng = Correlation_heuristic.compute m obs in
  let g1, _, _, _, _ = toy_good_probs toy_truth in
  checkf 0.05 "heuristic recovers e1" (1.0 -. g1)
    r.Pc_result.marginals.(e1);
  (* On the 3-path toy the pool is tiny; at scale it dwarfs the unknown
     count (asserted by the integration tests). *)
  check_bool "forms at least as many equations as unknowns" true
    (r.Pc_result.n_rows >= r.Pc_result.n_vars)

let test_correlation_complete_fewer_rows () =
  (* The paper's claim: Correlation-complete forms the minimum number of
     equations; the heuristic forms significantly more. *)
  let m = Toy.case1 () in
  let obs = toy_obs toy_truth in
  let cc, _ = Correlation_complete.compute m obs in
  let ch, _ = Correlation_heuristic.compute m obs in
  check_bool "complete never uses more equations" true
    (cc.Pc_result.n_rows <= ch.Pc_result.n_rows);
  check_bool "complete rows = vars here" true
    (cc.Pc_result.n_rows = cc.Pc_result.n_vars)

(* ------------------------------------------------------------------ *)
(* Sparsity                                                            *)
(* ------------------------------------------------------------------ *)

let infer_sparsity m congested =
  let n_paths = m.Model.n_paths in
  let congested_paths = Bitset.of_list n_paths congested in
  let good_paths = Bitset.create n_paths in
  Bitset.set_all good_paths;
  Bitset.diff_into ~into:good_paths congested_paths;
  Sparsity.infer m ~congested_paths ~good_paths

let test_sparsity_paper_example () =
  (* §3.1: "if the congested paths are {p1,p2,p3}, Sparsity will infer
     that the congested links are {e1,e3}". *)
  let m = Toy.case1 () in
  let inferred = infer_sparsity m [ p1; p2; p3 ] in
  check_ints "paper's inference" [ e1; e3 ] (Bitset.to_list inferred)

let test_sparsity_counterexample_metrics () =
  (* §3.1 continued: if e2 and e3 were actually congested, Sparsity
     "will miss one congested link and falsely blame one good link". *)
  let m = Toy.case1 () in
  let inferred = infer_sparsity m [ p1; p2; p3 ] in
  let actual = Bitset.of_list 4 [ e2; e3 ] in
  (match Metrics.detection_rate ~actual ~inferred with
  | Some dr -> checkf 1e-9 "detects half" 0.5 dr
  | None -> Alcotest.fail "defined");
  match Metrics.false_positive_rate ~actual ~inferred with
  | Some fpr -> checkf 1e-9 "half the blame is false" 0.5 fpr
  | None -> Alcotest.fail "defined"

let test_sparsity_good_paths_exonerate () =
  (* If p3 is good, e3 and e4 are exonerated; congested p2 must be blamed
     on e1. *)
  let m = Toy.case1 () in
  let inferred = infer_sparsity m [ p1; p2 ] in
  check_ints "only e1" [ e1 ] (Bitset.to_list inferred)

let test_sparsity_all_good () =
  let m = Toy.case1 () in
  let inferred = infer_sparsity m [] in
  check_bool "nothing inferred" true (Bitset.is_empty inferred)

(* A tree measured from one vantage point: links 0 and 1 hang off the
   root, leaves 2 and 3 off link 0 and leaf 4 off link 1, one path per
   leaf and one correlation set per link.  With both leaves under link 0
   congested, link 0 alone explains both paths — the subtree-root answer
   of Duffield's tree algorithm (reference [8]). *)
let test_sparsity_on_tree () =
  let m =
    Model.make ~n_links:5
      ~paths:[| [| 0; 2 |]; [| 0; 3 |]; [| 1; 4 |] |]
      ~corr_sets:(Array.init 5 (fun k -> [| k |]))
  in
  let congested_paths = Bitset.of_list 3 [ 0; 1 ] in
  let good_paths = Bitset.of_list 3 [ 2 ] in
  check_ints "link 0 explains both congested paths" [ 0 ]
    (Bitset.to_list (Sparsity.infer m ~congested_paths ~good_paths))

(* ------------------------------------------------------------------ *)
(* Bayesian inference                                                  *)
(* ------------------------------------------------------------------ *)

let test_bayesian_independence_worked_example () =
  (* §3.1 worked example: congested paths {p1,p2}, p3 good. Solutions are
     {e1} (probability 0.8 of occurring) and {e1,e2} (0.1). The MAP
     choice is {e1}. With marginals P(e1)=0.9, P(e2)=0.1 the greedy
     picks exactly that. *)
  let m = Toy.case1 () in
  let congested_paths = Bitset.of_list 3 [ p1; p2 ] in
  let good_paths = Bitset.of_list 3 [ p3 ] in
  let inferred =
    Bayesian.infer_independence m
      ~marginals:[| 0.9; 0.1; 0.0; 0.0 |]
      ~congested_paths ~good_paths
  in
  check_ints "MAP solution {e1}" [ e1 ] (Bitset.to_list inferred)

let test_bayesian_independence_prefers_likely () =
  (* All paths congested; e2,e3 highly likely congested, e1 rarely. The
     pruning must drop e1 when {e2,e3} explains everything more
     probably... but e4 and e3 also cover p3. With P(e2)=P(e3)=0.8 and
     P(e1)=P(e4)=0.01 the likeliest consistent cover is {e2,e3}. *)
  let m = Toy.case1 () in
  let congested_paths = Bitset.of_list 3 [ p1; p2; p3 ] in
  let good_paths = Bitset.create 3 in
  let inferred =
    Bayesian.infer_independence m
      ~marginals:[| 0.01; 0.8; 0.8; 0.01 |]
      ~congested_paths ~good_paths
  in
  check_ints "picks the probable pair" [ e2; e3 ] (Bitset.to_list inferred)

let test_bayesian_correlation_uses_joint () =
  (* e2 and e3 perfectly correlated (factor a only): when all paths are
     congested, the correlation-aware MAP must pick {e2,e3} (the actual
     frequent event) over Sparsity's {e1,e3}. *)
  let tt = { q1 = 0.05; qa = 0.4; qb = 0.0; qc = 0.0; q4 = 0.05 } in
  let m = Toy.case1 () in
  let obs = toy_obs ~t:8000 ~seed:3 tt in
  let sel = Algorithm1.select m obs in
  let eng = Prob_engine.solve sel obs in
  let congested_paths = Bitset.of_list 3 [ p1; p2; p3 ] in
  let good_paths = Bitset.create 3 in
  let inferred =
    Bayesian.infer_correlation m ~engine:eng ~congested_paths ~good_paths
  in
  check_bool "e2 in solution" true (Bitset.get inferred e2);
  check_bool "e3 in solution" true (Bitset.get inferred e3)

let test_solution_logprob_ranks_truth () =
  let tt = { q1 = 0.05; qa = 0.4; qb = 0.0; qc = 0.0; q4 = 0.05 } in
  let m = Toy.case1 () in
  let obs = toy_obs ~t:8000 ~seed:3 tt in
  let sel = Algorithm1.select m obs in
  let eng = Prob_engine.solve sel obs in
  let lp links = Bayesian.solution_logprob m ~engine:eng
      (Bitset.of_list 4 links)
  in
  (* {e2,e3} happens with probability ~qa(1-q1)(1-q4) ≈ 0.36;
     {e1,e3} alone is impossible under perfect correlation (≈ 0). *)
  check_bool "correlated pair more probable than split" true
    (lp [ e2; e3 ] > lp [ e1; e3 ])

(* ------------------------------------------------------------------ *)
(* Confidence intervals                                                *)
(* ------------------------------------------------------------------ *)

module Confidence = Tomo.Confidence

let test_confidence_brackets_point () =
  let m, eng = solve_case1 ~t:2000 () in
  ignore m;
  let cis =
    Confidence.link_marginal_cis eng ~resamples:40 ~level:0.9
      ~rng:(Rng.create 77)
  in
  check_int "one ci per link" 4 (Array.length cis);
  Array.iter
    (fun ci ->
      check_bool "lo <= hi" true (ci.Confidence.lo <= ci.Confidence.hi);
      check_bool "interval in [0,1]" true
        (ci.Confidence.lo >= 0.0 && ci.Confidence.hi <= 1.0))
    cis;
  (* With 2000 intervals the CI half-width should be modest and the true
     values covered for most links. *)
  let truths = [| 0.2; 0.475; 0.405; 0.1 |] in
  (* truth from toy_truth: e1 = q1; e2 = 1-(1-qa)(1-qb); e3 =
     1-(1-qa)(1-qc); e4 = q4. *)
  let covered = ref 0 in
  Array.iteri
    (fun e ci ->
      if truths.(e) >= ci.Confidence.lo -. 0.02
         && truths.(e) <= ci.Confidence.hi +. 0.02
      then incr covered)
    cis;
  check_bool "CIs cover most true marginals" true (!covered >= 3)

let test_confidence_narrows_with_t () =
  let width eng =
    let cis =
      Confidence.link_marginal_cis eng ~resamples:30 ~level:0.9
        ~rng:(Rng.create 5)
    in
    Array.fold_left
      (fun acc ci -> acc +. (ci.Confidence.hi -. ci.Confidence.lo))
      0.0 cis
  in
  let _, eng_short = solve_case1 ~t:300 ~seed:9 () in
  let _, eng_long = solve_case1 ~t:6000 ~seed:9 () in
  check_bool "longer experiments give narrower intervals" true
    (width eng_long < width eng_short)

let test_confidence_subset_ci () =
  let m, eng = solve_case1 ~t:2000 () in
  let subset = Subsets.make m ~corr:1 [| e2; e3 |] in
  match
    Confidence.subset_good_prob_ci eng ~subset ~resamples:30 ~level:0.9
      ~rng:(Rng.create 3)
  with
  | Some ci ->
      let _, _, _, g23, _ = toy_good_probs toy_truth in
      check_bool "covers truth" true
        (g23 >= ci.Tomo.Confidence.lo -. 0.05
        && g23 <= ci.Tomo.Confidence.hi +. 0.05)
  | None -> Alcotest.fail "subset is registered; CI expected"

let test_confidence_validation () =
  let _, eng = solve_case1 ~t:300 () in
  Alcotest.check_raises "resamples >= 2"
    (Invalid_argument "Confidence: need >= 2 resamples") (fun () ->
      ignore
        (Confidence.link_marginal_cis eng ~resamples:1 ~level:0.9
           ~rng:(Rng.create 1)));
  Alcotest.check_raises "level in (0,1)"
    (Invalid_argument "Confidence: level outside (0,1)") (fun () ->
      ignore
        (Confidence.link_marginal_cis eng ~resamples:5 ~level:1.5
           ~rng:(Rng.create 1)))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_edge_cases () =
  let actual = Bitset.of_list 4 [ 0 ] in
  let nothing = Bitset.create 4 in
  check_bool "DR undefined when nothing congested" true
    (Metrics.detection_rate ~actual:nothing ~inferred:actual = None);
  check_bool "FPR undefined when nothing inferred" true
    (Metrics.false_positive_rate ~actual ~inferred:nothing = None);
  (match Metrics.detection_rate ~actual ~inferred:actual with
  | Some dr -> checkf 1e-12 "perfect detection" 1.0 dr
  | None -> Alcotest.fail "defined");
  match Metrics.mean_opt [ Some 1.0; None; Some 0.0 ] with
  | Some v -> checkf 1e-12 "mean over defined" 0.5 v
  | None -> Alcotest.fail "defined"

let test_metrics_mae () =
  checkf 1e-12 "mae over subset" 0.25
    (Metrics.mean_abs_error ~truth:[| 0.0; 1.0; 0.5 |]
       ~estimate:[| 0.5; 1.0; 0.5 |]
       ~over:[ 0; 1 ])

let prop_metrics_bounds =
  QCheck.Test.make ~name:"DR and FPR always within [0,1]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 10) (int_bound 19))
        (list_of_size Gen.(int_bound 10) (int_bound 19)))
    (fun (a, i) ->
      let actual = Bitset.of_list 20 a and inferred = Bitset.of_list 20 i in
      let ok_opt = function
        | None -> true
        | Some v -> v >= 0.0 && v <= 1.0
      in
      ok_opt (Metrics.detection_rate ~actual ~inferred)
      && ok_opt (Metrics.false_positive_rate ~actual ~inferred))

let prop_engine_probabilities_in_range =
  QCheck.Test.make
    ~name:"toy engine marginals stay in [0,1] across random truths"
    ~count:15 (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create seed in
      let tt =
        {
          q1 = Rng.float rng 0.9;
          qa = Rng.float rng 0.9;
          qb = Rng.float rng 0.9;
          qc = Rng.float rng 0.9;
          q4 = Rng.float rng 0.9;
        }
      in
      let m = Toy.case1 () in
      let obs = toy_obs ~t:600 ~seed tt in
      let sel = Algorithm1.select m obs in
      let eng = Prob_engine.solve sel obs in
      List.for_all
        (fun e ->
          let p = Prob_engine.link_marginal eng e in
          p >= 0.0 && p <= 1.0)
        [ e1; e2; e3; e4 ])

(* ------------------------------------------------------------------ *)
(* Cross-cutting properties on random small models                      *)
(* ------------------------------------------------------------------ *)

(* Random small mesh model: n links in k correlation sets, m random
   paths. *)
let random_model rng =
  let n_links = 3 + Rng.int rng 8 in
  let n_sets = 1 + Rng.int rng 3 in
  let corr_of = Array.init n_links (fun _ -> Rng.int rng n_sets) in
  let corr_sets =
    Array.init n_sets (fun c ->
        Array.of_list
          (List.filter
             (fun e -> corr_of.(e) = c)
             (List.init n_links (fun e -> e))))
    |> Array.to_list
    |> List.filter (fun s -> Array.length s > 0)
    |> Array.of_list
  in
  let n_paths = 2 + Rng.int rng 6 in
  let paths =
    Array.init n_paths (fun _ ->
        let len = 1 + Rng.int rng (min 4 n_links) in
        Rng.sample rng (Array.init n_links (fun e -> e)) len)
  in
  Model.make ~n_links ~paths ~corr_sets

let random_obs rng model ~t =
  let probs = Array.init model.Model.n_links (fun _ -> Rng.float rng 0.6) in
  let states =
    Array.init t (fun _ ->
        List.filter
          (fun e -> Rng.bool rng ~p:probs.(e))
          (List.init model.Model.n_links (fun e -> e)))
  in
  let path_good =
    Array.map
      (fun links ->
        let b = Bitset.create t in
        Array.iteri
          (fun i congested ->
            if
              not
                (List.exists
                   (fun e -> Array.exists (fun l -> l = e) links)
                   congested)
            then Bitset.set b i)
          states;
        b)
      (Array.init model.Model.n_paths (fun p ->
           Array.of_list (Bitset.to_list model.Model.path_links.(p))))
  in
  Observations.make ~t_intervals:t ~path_good

let prop_selection_rows_well_formed =
  QCheck.Test.make
    ~name:"Algorithm 1 rows: vars sorted, distinct, registered" ~count:40
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create seed in
      let model = random_model rng in
      let obs = random_obs rng model ~t:60 in
      let sel = Algorithm1.select model obs in
      Array.for_all
        (fun row ->
          let vars = row.Eqn.vars in
          let sorted = ref true in
          Array.iteri
            (fun i v ->
              if i > 0 && vars.(i - 1) >= v then sorted := false;
              if v < 0 || v >= Eqn.n_vars sel.Algorithm1.registry then
                sorted := false)
            vars;
          !sorted)
        sel.Algorithm1.rows)


let prop_selection_rank_consistent =
  QCheck.Test.make
    ~name:"Algorithm 1: rows + nullity = unknowns (independent selection)"
    ~count:40 (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create (seed + 50_000) in
      let model = random_model rng in
      let obs = random_obs rng model ~t:60 in
      let sel = Algorithm1.select model obs in
      Array.length sel.Algorithm1.rows + sel.Algorithm1.nullity
      = Eqn.n_vars sel.Algorithm1.registry)

let consistent_inference infer =
  QCheck.Test.make
    ~name:
      ("inference is consistent: covers congested paths, avoids \
        good-path links (" ^ fst infer ^ ")")
    ~count:40 (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create (seed + 90_000) in
      let model = random_model rng in
      let obs = random_obs rng model ~t:40 in
      let interval = Rng.int rng 40 in
      let congested_paths = Observations.congested_paths_at obs ~interval in
      let good_paths = Observations.good_paths_at obs ~interval in
      let inferred = (snd infer) model obs ~congested_paths ~good_paths in
      (* no inferred link lies on a good path *)
      let good_links =
        Model.links_of_paths model
          (Array.of_list (Bitset.to_list good_paths))
      in
      Bitset.disjoint inferred good_links
      && (* every congested path is covered, except paths with no
            candidate link at all (impossible under ideal measurement,
            tolerated for robustness) *)
      Bitset.fold
        (fun ok p ->
          ok
          &&
          let links = model.Model.path_links.(p) in
          (not (Bitset.disjoint links inferred))
          || Bitset.subset links good_links)
        true congested_paths)

let prop_sparsity_consistent =
  consistent_inference
    ( "sparsity",
      fun model _obs ~congested_paths ~good_paths ->
        Sparsity.infer model ~congested_paths ~good_paths )

let prop_bayesian_ind_consistent =
  consistent_inference
    ( "bayesian-independence",
      fun model obs ~congested_paths ~good_paths ->
        let pc = Independence_pc.compute model obs in
        Bayesian.infer_independence model
          ~marginals:pc.Pc_result.marginals ~congested_paths ~good_paths )

let prop_bayesian_corr_consistent =
  consistent_inference
    ( "bayesian-correlation",
      fun model obs ~congested_paths ~good_paths ->
        let _, engine = Correlation_complete.compute model obs in
        Bayesian.infer_correlation model ~engine ~congested_paths
          ~good_paths )

let prop_identifiable_good_probs_in_range =
  QCheck.Test.make
    ~name:"identifiable good-probabilities stay within [0,1]" ~count:30
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create (seed + 130_000) in
      let model = random_model rng in
      let obs = random_obs rng model ~t:80 in
      let sel = Algorithm1.select model obs in
      let eng = Prob_engine.solve sel obs in
      let ok = ref true in
      for v = 0 to Eqn.n_vars sel.Algorithm1.registry - 1 do
        let s = Eqn.subset_of_var sel.Algorithm1.registry v in
        match Prob_engine.good_prob eng s with
        | Some g -> if g < 0.0 || g > 1.0 then ok := false
        | None -> ()
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Readout plan and streamed grow against their references             *)
(* ------------------------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let strategies = [ `Whole; `Split; `Adaptive ]

(* Every link, every strategy: the plan-based readout of [eng] equals the
   per-query reference bit for bit, and so do [link_identifiable] and the
   one-pass [link_marginals] (the adaptive strategy's). *)
let readout_matches_reference eng =
  let n_links = eng.Prob_engine.selection.Algorithm1.model.Model.n_links in
  let pass = Prob_engine.link_marginals eng in
  Array.length pass = n_links
  && List.init n_links Fun.id
     |> List.for_all (fun e ->
            Prob_engine.link_identifiable eng e = Reference.identifiable eng e
            && same_bits pass.(e) (Reference.marginal_with `Adaptive eng e)
            && List.for_all
                 (fun s ->
                   same_bits
                     (Prob_engine.link_marginal_with s eng e)
                     (Reference.marginal_with s eng e))
                 strategies)

(* Random models rich in chain links: a few correlation sets, paths of
   up to 5 links, and congestion partly drawn from per-set shared
   causes, so witness paths co-congest and every branch of the adaptive
   fallback is reached (see [test_readout_branches_exercised]). *)
let random_chain_case seed =
  let rng = Rng.create (seed + 170_000) in
  let n_links = 4 + Rng.int rng 10 in
  let n_sets = 1 + Rng.int rng 3 in
  let corr_of = Array.init n_links (fun _ -> Rng.int rng n_sets) in
  let corr_sets =
    List.init n_sets (fun c ->
        Array.of_list
          (List.filter (fun e -> corr_of.(e) = c) (List.init n_links Fun.id)))
    |> List.filter (fun s -> Array.length s > 0)
    |> Array.of_list
  in
  let n_paths = 3 + Rng.int rng 10 in
  let paths =
    Array.init n_paths (fun _ ->
        Rng.sample rng (Array.init n_links Fun.id)
          (1 + Rng.int rng (min 5 n_links)))
  in
  let model = Model.make ~n_links ~paths ~corr_sets in
  let t = 40 + Rng.int rng 80 in
  let link_p = Array.init n_links (fun _ -> Rng.float rng 0.4) in
  let cause_p =
    Array.init (Array.length corr_sets) (fun _ -> Rng.float rng 0.4)
  in
  let path_good = Array.init n_paths (fun _ -> Bitset.create t) in
  for i = 0 to t - 1 do
    let congested = Array.map (fun p -> Rng.bool rng ~p) link_p in
    Array.iteri
      (fun c links ->
        if Rng.bool rng ~p:cause_p.(c) then
          Array.iter
            (fun e -> if Rng.bool rng ~p:0.8 then congested.(e) <- true)
            links)
      corr_sets;
    Array.iteri
      (fun p links ->
        if not (Array.exists (fun e -> congested.(e)) links) then
          Bitset.set path_good.(p) i)
      paths
  done;
  (model, Observations.make ~t_intervals:t ~path_good, rng)

let prop_readout_complete =
  QCheck.Test.make
    ~name:"Correlation-complete readout ≡ per-query reference (bitwise)"
    ~count:150 (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, _ = random_chain_case seed in
      let eng = Prob_engine.solve (Algorithm1.select model obs) obs in
      readout_matches_reference eng)

(* The Confidence path: bootstrap replicates re-solve one selection (and
   so one plan) on resampled windows. *)
let prop_readout_resampled =
  QCheck.Test.make
    ~name:"readout on resampled windows ≡ reference (bitwise)" ~count:60
    (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, rng = random_chain_case seed in
      let sel = Algorithm1.select model obs in
      List.for_all
        (fun _ ->
          readout_matches_reference
            (Prob_engine.solve sel (Observations.resample obs rng)))
        [ 1; 2; 3 ])

let prop_readout_heuristic =
  QCheck.Test.make
    ~name:"Correlation-heuristic readout ≡ reference (bitwise)" ~count:60
    (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, _ = random_chain_case seed in
      readout_matches_reference (snd (Correlation_heuristic.compute model obs)))

let selections_equal (a : Algorithm1.selection) (b : Reference.selection) =
  let rows_equal =
    Array.length a.Algorithm1.rows = Array.length b.Reference.rows
    && Array.for_all2
         (fun (x : Eqn.row) (y : Eqn.row) ->
           x.Eqn.paths = y.Eqn.paths && x.Eqn.vars = y.Eqn.vars)
         a.Algorithm1.rows b.Reference.rows
  in
  rows_equal
  && a.Algorithm1.identifiable = b.Reference.identifiable_vars
  && a.Algorithm1.nullity = b.Reference.nullity

(* The witness prefilter is a pure short-circuit: across random
   topologies, Algorithm 1 with it on must select bit for bit what the
   reference selects with it forced off (the exact dependence test
   alone) — same rows (paths and variables), identifiable flags and
   nullity. *)
let prop_selection_witness_parity =
  QCheck.Test.make
    ~name:"Algorithm 1: witness-on selection ≡ witness-off (bit-identical)"
    ~count:40 (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create (seed + 70_000) in
      let model = random_model rng in
      let obs = random_obs rng model ~t:60 in
      selections_equal
        (Algorithm1.select model obs)
        (Reference.select ~witness_k:0 model obs))

let prop_grow_matches_reference =
  QCheck.Test.make
    ~name:"Algorithm 1 streamed grow ≡ materializing reference" ~count:150
    (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, rng = random_chain_case seed in
      let config =
        { Algorithm1.max_subset_size = 1 + Rng.int rng 3 }
      in
      selections_equal
        (Algorithm1.select ~config model obs)
        (Reference.select ~config model obs))

(* The properties above are only as strong as the branches they reach:
   over the generator's first seeds, links must be read through every
   kind of plan entry and every adaptive reading. *)
let test_readout_branches_exercised () =
  let singleton = ref 0 and chain = ref 0 in
  let witnessed = ref 0 and correlated = ref 0 and quotient = ref 0 in
  (* uncorrelated chains read through the median of an even (≥ 2) and an
     odd (≥ 3) number of quotients, which pins the median's position *)
  let even_median = ref 0 and odd_median = ref 0 in
  for seed = 0 to 149 do
    let model, obs, _ = random_chain_case seed in
    let eng = Prob_engine.solve (Algorithm1.select model obs) obs in
    Array.iteri
      (fun e entry ->
        match entry with
        | Tomo.Readout.Certified_good | Tomo.Readout.Uncovered -> ()
        | Tomo.Readout.Singleton _ -> incr singleton
        | Tomo.Readout.Chain c ->
            incr chain;
            if c.Tomo.Readout.witnesses <> [||] then incr witnessed;
            if c.Tomo.Readout.quotients <> [||] then incr quotient;
            let subset =
              Eqn.subset_of_var eng.Prob_engine.selection.Algorithm1.registry
                c.Tomo.Readout.var
            in
            if
              Array.exists
                (fun x ->
                  x <> e
                  &&
                  match Reference.link_dependence eng e x with
                  | Some d -> d >= 0.5
                  | None -> false)
                subset.Subsets.links
            then incr correlated
            else
              let pairs = Array.length c.Tomo.Readout.quotients / 2 in
              if pairs >= 2 && pairs mod 2 = 0 then incr even_median;
              if pairs >= 3 && pairs mod 2 = 1 then incr odd_median)
      eng.Prob_engine.selection.Algorithm1.readout.Tomo.Readout.entries
  done;
  List.iter
    (fun (what, n) ->
      check_bool (Printf.sprintf "%s links seen (%d)" what n) true (n > 0))
    [
      ("singleton", !singleton);
      ("chain", !chain);
      ("witnessed chain", !witnessed);
      ("correlated chain", !correlated);
      ("quotient chain", !quotient);
      ("even-median chain", !even_median);
      ("odd-median chain", !odd_median);
    ]

(* The small Brite and Sparse workloads: pools past the 300-candidate
   cap, and hundreds of chain links on Sparse. *)
let test_readout_and_grow_on_workloads () =
  List.iter
    (fun topology ->
      let w =
        W.prepare
          (W.spec ~scale:W.Small ~seed:3 topology Tomo_netsim.Scenario.Random)
      in
      let model = w.W.model and obs = w.W.obs in
      let name = W.topology_to_string topology in
      let sel = Algorithm1.select model obs in
      check_bool (name ^ ": selection ≡ reference") true
        (selections_equal sel (Reference.select model obs));
      check_bool (name ^ ": readout ≡ reference") true
        (readout_matches_reference (Prob_engine.solve sel obs)))
    [ W.Brite; W.Sparse ]

(* ------------------------------------------------------------------ *)
(* Selection kernels against their references                          *)
(* ------------------------------------------------------------------ *)

module Nullspace = Tomo_linalg.Nullspace
module Sparse_rref = Tomo_oracles.Sparse_rref

let columns_same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y && Array.for_all2 same_bits x y)
       a b

(* The seed elimination on the systems Algorithm 1 seeds from: every
   basis entry equal to the sorted-merge reference's, zero signs
   included, and witnesses equal to a from-scratch [N · g_c]. *)
let prop_seed_systems_match_sorted_merge =
  QCheck.Test.make
    ~name:"seed elimination ≡ sorted-merge reference on seed systems (bits)"
    ~count:150 (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, rng = random_chain_case seed in
      let config =
        { Algorithm1.max_subset_size = 1 + Rng.int rng 3 }
      in
      let n, rows = Reference.seed_system ~config model obs in
      let r = Array.length rows in
      let tr = Nullspace.of_incidence ~tol:1e-8 ~rows:r ~cols:n rows in
      columns_same_bits (Nullspace.columns tr)
        (Tomo_oracles.Dense.columns
           (Sparse_rref.basis ~tol:1e-8 ~rows:r ~cols:n rows))
      && Nullspace.witness_defect tr = 0.0)

(* The grow phase's packed-key heap sort must leave the permutation
   Stdlib's [Array.sort] leaves on (variable, weight) pairs, ties
   included; weights drawn from 0..5 make ties the common case. *)
let prop_grow_order_matches_array_sort =
  QCheck.Test.make ~name:"grow-order sort ≡ Array.sort permutation"
    ~count:300
    QCheck.(pair (int_range 0 2000) (int_range 0 100_000))
    (fun (n, seed) ->
      let n = if seed mod 3 = 0 then n mod 20 else n in
      let rng = Rng.create (seed + 180_000) in
      let w = Array.init n (fun _ -> Rng.int rng 6) in
      let pairs = Array.init n (fun v -> (v, w.(v))) in
      Array.sort (fun (_, a) (_, b) -> compare b a) pairs;
      let shift = ref 0 in
      while 1 lsl !shift < n do
        incr shift
      done;
      let shift = !shift in
      let keys = Array.init n (fun v -> (w.(v) lsl shift) lor v) in
      Algorithm1.sort_grow_order ~shift keys;
      Array.map fst pairs = Array.map (fun k -> k land ((1 lsl shift) - 1)) keys)

(* A correlation set wider than a word: 70 links covered by the 2-link
   chain paths [i; i+1], each congested in some interval, so every link
   is potentially congested and a mask takes two words.  Algorithm 1
   must select exactly what the reference, on the bit-set path,
   selects. *)
let wide_case () =
  let n = 70 and t = 12 in
  let model =
    Model.make ~n_links:n
      ~paths:(Array.init (n - 1) (fun i -> [| i; i + 1 |]))
      ~corr_sets:[| Array.init n Fun.id |]
  in
  let rng = Rng.create 70 in
  let path_good =
    Array.init (n - 1) (fun p ->
        let b = Bitset.create t in
        for i = 0 to t - 1 do
          if i <> p mod t && Rng.bool rng ~p:0.7 then Bitset.set b i
        done;
        b)
  in
  (model, Observations.make ~t_intervals:t ~path_good)

let test_wide_set_selection () =
  let model, obs = wide_case () in
  let effective = Subsets.effective_links model obs in
  check_int "two-word masks" 2
    (Signatures.build model ~effective).Signatures.words;
  let sel = Algorithm1.select model obs in
  check_bool "rows selected" true (Array.length sel.Algorithm1.rows > 0);
  check_bool "selection ≡ reference" true
    (selections_equal sel (Reference.select model obs))

(* The last [window] intervals of [obs], as a window of their own. *)
let last_window obs window =
  let t = Observations.t_intervals obs in
  let w =
    Observations.create ~t_intervals:window ~n_paths:(Observations.n_paths obs)
  in
  for i = 0 to window - 1 do
    Observations.set_interval_statuses w ~interval:i
      ~good:(Observations.good_paths_at obs ~interval:(t - window + i))
  done;
  w

(* The streaming engine's selection cache keeps a selection's compact
   [decision] and rebuilds the selection from it: the rebuilt selection
   is the one [select] returned, field for field, seed rows recomputed
   from their variables' pools and grow rows resolved from their paths,
   and it solves to the same bits.  This holds on small and medium
   Brite and Sparse windows of 3, 20 and 100 intervals.  A decision is
   one string of the packed size: a bit per effective-link flag and two
   per variable, a start bit and [path_bits] bits per grow-row path,
   and a header of three LEB128 numbers; at medium scale that is at
   most 40 words, where its selection holds tens of thousands.  The
   decision of a selection made under another configuration, whose
   registry differs, is refused. *)
let packed_bytes (sel : Algorithm1.selection) =
  let model = sel.Algorithm1.model in
  let leb128 x = if x < 0x80 then 1 else if x < 0x4000 then 2 else 3 in
  let n_vars = Array.length sel.Algorithm1.identifiable in
  let n_seed = Bitset.count sel.Algorithm1.seeded in
  let grow_paths = ref 0 in
  Array.iteri
    (fun i r ->
      if i >= n_seed then
        grow_paths := !grow_paths + Array.length r.Eqn.paths)
    sel.Algorithm1.rows;
  let path_bits = ref 1 in
  while 1 lsl !path_bits < model.Model.n_paths do
    incr path_bits
  done;
  leb128 n_vars + leb128 sel.Algorithm1.nullity + leb128 !grow_paths
  + (model.Model.n_links + (2 * n_vars) + (!grow_paths * (1 + !path_bits))
    + 7)
    / 8

let test_rebuilt_selection () =
  List.iter
    (fun (scale, topology) ->
      let w =
        W.prepare (W.spec ~scale ~seed:3 topology Tomo_netsim.Scenario.Random)
      in
      let model = w.W.model in
      List.iter
        (fun window ->
          let obs = last_window w.W.obs window in
          let name =
            Printf.sprintf "%s %s, window %d" (W.scale_to_string scale)
              (W.topology_to_string topology)
              window
          in
          let sel = Algorithm1.select model obs in
          let n_seed = Bitset.count sel.Algorithm1.seeded in
          check_bool (name ^ ": seed rows and grow rows") true
            (0 < n_seed && n_seed < Array.length sel.Algorithm1.rows);
          let d = Algorithm1.decision sel in
          let re = Algorithm1.of_decision model d in
          check_bool (name ^ ": rows, paths and vars") true
            (compare re.Algorithm1.rows sel.Algorithm1.rows = 0);
          check_bool (name ^ ": seeded variables") true
            (Bitset.equal re.Algorithm1.seeded sel.Algorithm1.seeded);
          check_bool (name ^ ": identifiable flags") true
            (compare re.Algorithm1.identifiable sel.Algorithm1.identifiable
            = 0);
          check_int (name ^ ": nullity") sel.Algorithm1.nullity
            re.Algorithm1.nullity;
          check_bool (name ^ ": readout") true
            (compare re.Algorithm1.readout sel.Algorithm1.readout = 0);
          check_bool (name ^ ": every field") true (compare re sel = 0);
          let a = Prob_engine.solve sel obs and b = Prob_engine.solve re obs in
          check_bool (name ^ ": solved values, bitwise") true
            (Array.for_all2 same_bits a.Prob_engine.values
               b.Prob_engine.values);
          let bytes = Algorithm1.decision_bytes d in
          check_int (name ^ ": packed bytes") (packed_bytes sel) bytes;
          check_int (name ^ ": one string")
            ((bytes / 8) + 2)
            (Obj.reachable_words (Obj.repr d));
          if scale = W.Medium then
            check_bool
              (Printf.sprintf "%s: decision of %d words <= 40" name
                 (Obj.reachable_words (Obj.repr d)))
              true
              (Obj.reachable_words (Obj.repr d) <= 40))
        [ 3; 20; 100 ])
    [
      (W.Small, W.Brite); (W.Small, W.Sparse); (W.Medium, W.Brite);
      (W.Medium, W.Sparse);
    ];
  let w =
    W.prepare
      (W.spec ~scale:W.Small ~seed:3 W.Brite Tomo_netsim.Scenario.Random)
  in
  let other =
    Algorithm1.select ~config:{ Algorithm1.max_subset_size = 1 } w.W.model
      w.W.obs
  in
  check_bool "another config's decision refused" true
    (match Algorithm1.of_decision w.W.model (Algorithm1.decision other) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The signature table against the generic bit-set path                *)
(* ------------------------------------------------------------------ *)

module Bitset_path = Tomo_oracles.Bitset_path

(* Random models shaped for the signature table: interchangeable paths
   (exact duplicates, and copies that also run the certified-good link
   0), chain-heavy sets whose signatures all have two links (every third
   seed), and random congestion.  Link 0 is never congested and the path
   [0] runs it alone, so it is always good and certifies link 0. *)
let random_signature_case seed =
  let rng = Rng.create (seed + 230_000) in
  let n_links = 5 + Rng.int rng 10 in
  let n_sets = 1 + Rng.int rng 3 in
  let corr_of = Array.init n_links (fun _ -> Rng.int rng n_sets) in
  let corr_sets =
    List.init n_sets (fun c ->
        Array.of_list
          (List.filter (fun e -> corr_of.(e) = c) (List.init n_links Fun.id)))
    |> List.filter (fun s -> Array.length s > 0)
    |> Array.of_list
  in
  let stretch () =
    let ls = Rng.choose rng corr_sets in
    if Array.length ls < 2 then []
    else
      let i = Rng.int rng (Array.length ls - 1) in
      [ ls.(i); ls.(i + 1) ]
  in
  let chain = seed mod 3 = 0 in
  let base =
    List.init
      (3 + Rng.int rng 8)
      (fun _ ->
        let links =
          if chain then
            stretch () @ if Rng.bool rng ~p:0.3 then stretch () else []
          else
            Array.to_list
              (Rng.sample rng (Array.init n_links Fun.id)
                 (1 + Rng.int rng (min 5 n_links)))
        in
        match List.sort_uniq compare links with
        | [] -> [ 1 + Rng.int rng (n_links - 1) ]
        | l -> l)
  in
  let copies =
    List.concat_map
      (fun links ->
        (if Rng.bool rng ~p:0.3 then [ links ] else [])
        @
        if Rng.bool rng ~p:0.3 && not (List.mem 0 links) then [ 0 :: links ]
        else [])
      base
  in
  let paths =
    Array.of_list (List.map Array.of_list (([ 0 ] :: base) @ copies))
  in
  Rng.shuffle rng paths;
  let model = Model.make ~n_links ~paths ~corr_sets in
  let t = 30 + Rng.int rng 60 in
  let link_p =
    Array.init n_links (fun e -> if e = 0 then 0.0 else Rng.float rng 0.4)
  in
  let path_good = Array.map (fun _ -> Bitset.create t) paths in
  for i = 0 to t - 1 do
    let congested = Array.map (fun p -> Rng.bool rng ~p) link_p in
    Array.iter
      (fun links ->
        if Rng.bool rng ~p:0.2 then
          Array.iter
            (fun e ->
              if e <> 0 && Rng.bool rng ~p:0.8 then congested.(e) <- true)
            links)
      corr_sets;
    Array.iteri
      (fun p links ->
        if not (Array.exists (fun e -> congested.(e)) links) then
          Bitset.set path_good.(p) i)
      paths
  done;
  (model, Observations.make ~t_intervals:t ~path_good, rng)

(* [f ()] with the metrics on, and the named counters it moved. *)
let counted names f =
  Tomo_obs.Metrics.set_enabled true;
  Tomo_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tomo_obs.Metrics.set_enabled false;
      Tomo_obs.Metrics.reset ())
    (fun () ->
      let r = f () in
      ( r,
        List.map
          (fun n -> Tomo_obs.Metrics.(counter_value (counter n)))
          names ))

(* Random models with one correlation set of 64-100 links, so that its
   masks take two words once at least 64 of them are effective:
   backbone paths cover the set in stretches, short paths of 1-3 links
   sit mostly past the first word, a small second set rides along, and
   some paths are duplicated.  Links congest often, so a short path is
   rarely always good; the few paths keep the reference's materializing
   grow quick. *)
let random_wide_case seed =
  let rng = Rng.create (seed + 260_000) in
  let n_wide = 64 + Rng.int rng 37 and n_small = 2 + Rng.int rng 4 in
  let n_links = n_wide + n_small in
  let corr_sets =
    [| Array.init n_wide Fun.id; Array.init n_small (fun i -> n_wide + i) |]
  in
  let small_link () = n_wide + Rng.int rng n_small in
  let n_stretches = 4 + Rng.int rng 3 in
  let backbone =
    List.init n_stretches (fun i ->
        let lo = i * n_wide / n_stretches
        and hi = (i + 1) * n_wide / n_stretches in
        List.init (hi - lo) (fun k -> lo + k)
        @ if Rng.bool rng ~p:0.5 then [ small_link () ] else [])
  in
  let short =
    List.init
      (3 + Rng.int rng 4)
      (fun _ ->
        let start =
          if Rng.bool rng ~p:0.7 then 55 + Rng.int rng (n_wide - 57)
          else Rng.int rng (n_wide - 2)
        in
        List.init (1 + Rng.int rng 3) (fun k -> start + k)
        @ if Rng.bool rng ~p:0.2 then [ small_link () ] else [])
  in
  let base = backbone @ short in
  let copies = List.filter (fun _ -> Rng.bool rng ~p:0.2) base in
  let paths = Array.of_list (List.map Array.of_list (base @ copies)) in
  Rng.shuffle rng paths;
  let model = Model.make ~n_links ~paths ~corr_sets in
  let t = 30 + Rng.int rng 30 in
  let link_p = Array.init n_links (fun _ -> 0.1 +. Rng.float rng 0.3) in
  let path_good = Array.map (fun _ -> Bitset.create t) paths in
  for i = 0 to t - 1 do
    let congested = Array.map (fun p -> Rng.bool rng ~p) link_p in
    Array.iteri
      (fun p links ->
        if not (Array.exists (fun e -> congested.(e)) links) then
          Bitset.set path_good.(p) i)
      paths
  done;
  (model, Observations.make ~t_intervals:t ~path_good, rng)

(* Every fourth case is a wide one. *)
let signature_case seed =
  if seed mod 4 = 3 then random_wide_case seed else random_signature_case seed

let enumeration_counters =
  [
    "subsets_enumerated";
    "subsets_enumeration_capped";
    "combin_subsets_visited";
  ]

let mask_enumeration table ~max_size ~limit_per_set =
  let acc = ref [] in
  Subsets.enumerate table ~max_size ~limit_per_set (fun corr m ->
      acc := Subsets.of_mask table ~corr m 0 :: !acc);
  List.rev !acc

let prop_signature_enumeration =
  QCheck.Test.make
    ~name:"Subsets.enumerate ≡ bit-set oracle (list and counters)"
    ~count:300 (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, rng = signature_case seed in
      let effective = Subsets.effective_links model obs in
      let table = Signatures.build model ~effective in
      let max_size = 1 + Rng.int rng 4 in
      let limit_per_set =
        if Rng.bool rng ~p:0.3 then 500 else 1 + Rng.int rng 6
      in
      let oracle, c_oracle =
        counted enumeration_counters (fun () ->
            Bitset_path.enumerate model ~effective ~max_size ~limit_per_set)
      and masks, c_masks =
        counted enumeration_counters (fun () ->
            mask_enumeration table ~max_size ~limit_per_set)
      in
      List.equal Subsets.equal oracle masks && c_oracle = c_masks)

(* Ê registered both ways, in the same order; then every lookup, seed
   pool and resolved row against the generic path's. *)
let prop_signature_registry_pools_rows =
  QCheck.Test.make
    ~name:"signature registry, pools and resolver ≡ generic functions"
    ~count:300 (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, rng = signature_case seed in
      let effective = Subsets.effective_links model obs in
      let table = Signatures.build model ~effective in
      let max_size = 1 + Rng.int rng 3 and limit_per_set = 500 in
      let oracle = Bitset_path.registry () in
      ignore (Bitset_path.register_single_path_vars model ~effective oracle);
      List.iter
        (fun s -> ignore (Bitset_path.add oracle s))
        (Bitset_path.enumerate model ~effective ~max_size ~limit_per_set);
      let reg = Eqn.registry table in
      Eqn.register_single_path_masks reg;
      Subsets.enumerate table ~max_size ~limit_per_set (fun corr m ->
          ignore (Eqn.add_mask reg ~corr m 0));
      let subsets = Bitset_path.subsets oracle in
      let vars = List.init (Array.length subsets) Fun.id in
      let rz = Eqn.resolver reg in
      let resolves paths =
        Eqn.row_fast rz ~paths = Bitset_path.row model ~effective oracle ~paths
      in
      let n_paths = model.Model.n_paths in
      (* A link outside the effective set is in no variable. *)
      let outside =
        List.filter
          (fun e -> not (Bitset.get effective e))
          (List.init model.Model.n_links Fun.id)
      in
      Eqn.n_vars reg = Array.length subsets
      && List.for_all
           (fun v ->
             let s = subsets.(v) in
             Subsets.equal (Eqn.subset_of_var reg v) s
             && Eqn.find reg s = Some v
             &&
             let pool =
               Signatures.pool table ~corr:s.Subsets.corr
                 (Eqn.mask_of_var reg v) 0
             in
             pool
             = Array.of_list
                 (Bitset.to_list
                    (Bitset_path.candidate_paths model ~effective s))
             && (pool = [||] || resolves pool))
           vars
      && List.for_all
           (fun e ->
             Eqn.find reg
               (Subsets.make model ~corr:model.Model.corr_of_link.(e) [| e |])
             = None)
           outside
      && List.for_all
           (fun _ ->
             resolves
               (Rng.sample rng (Array.init n_paths Fun.id)
                  (1 + Rng.int rng (min 4 n_paths))))
           (List.init 20 Fun.id))

let prop_signature_select =
  QCheck.Test.make
    ~name:"Algorithm 1 on the signature table ≡ reference (bitwise)"
    ~count:300 (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, rng = signature_case seed in
      let config = { Algorithm1.max_subset_size = 1 + Rng.int rng 3 } in
      selections_equal
        (Algorithm1.select ~config model obs)
        (Reference.select ~config model obs))

(* The heuristic grows its registry row by row from the table; the same
   pipeline with its rows grown on the generic path must give the same
   registry, rows, flags and marginals. *)
let prop_heuristic_matches_oracle =
  QCheck.Test.make
    ~name:"Correlation-heuristic ≡ its pipeline on the bit-set path (bitwise)"
    ~count:150 (QCheck.int_range 0 10_000) (fun seed ->
      let model, obs, _ = signature_case seed in
      let r, eng = Correlation_heuristic.compute model obs in
      let r', eng', subsets = Reference.heuristic model obs in
      let sel = eng.Prob_engine.selection
      and sel' = eng'.Prob_engine.selection in
      let reg = sel.Algorithm1.registry in
      Eqn.n_vars reg = Array.length subsets
      && List.for_all
           (fun v -> Subsets.equal (Eqn.subset_of_var reg v) subsets.(v))
           (List.init (Array.length subsets) Fun.id)
      && Array.length sel.Algorithm1.rows = Array.length sel'.Algorithm1.rows
      && Array.for_all2
           (fun (x : Eqn.row) (y : Eqn.row) ->
             x.Eqn.paths = y.Eqn.paths && x.Eqn.vars = y.Eqn.vars)
           sel.Algorithm1.rows sel'.Algorithm1.rows
      && sel.Algorithm1.identifiable = sel'.Algorithm1.identifiable
      && Array.for_all2 same_bits r.Pc_result.marginals r'.Pc_result.marginals
      && r.Pc_result.identifiable = r'.Pc_result.identifiable)

(* The properties above only bite where their cases reach: over the
   generator's first seeds, tables must take two words, paths must be
   interchangeable, the grow must skip (on two-word tables too), the
   find cap or the visit budget must truncate an enumeration, and some
   set must have sizes the identifiability analysis proves empty (its
   prunable size slots, read off the same signatures). *)
let test_signature_cases_exercised () =
  let wide = ref 0 and wide_skips = ref 0 in
  let classes = ref 0 and skips = ref 0 and capped = ref 0 and pruned = ref 0 in
  for seed = 0 to 199 do
    let model, obs, _ = signature_case seed in
    let effective = Subsets.effective_links model obs in
    let table = Signatures.build model ~effective in
    Array.iteri (fun p r -> if r <> p then incr classes) table.Signatures.rep;
    let _, c =
      counted [ "alg1_interchangeable_skips" ] (fun () ->
          Algorithm1.select model obs)
    in
    skips := !skips + List.hd c;
    if table.Signatures.words = 2 then begin
      incr wide;
      wide_skips := !wide_skips + List.hd c
    end;
    let _, c =
      counted enumeration_counters (fun () ->
          mask_enumeration table ~max_size:3 ~limit_per_set:2)
    in
    capped := !capped + List.nth c 1;
    Array.iter
      (fun (s : Tomo.Identifiability.corr_stats) ->
        pruned := !pruned + s.Tomo.Identifiability.pruned_sizes)
      (Tomo.Identifiability.analyze model ~effective).Tomo.Identifiability.corr
  done;
  check_bool (Printf.sprintf "two-word tables (%d of 200)" !wide) true
    (!wide >= 25);
  List.iter
    (fun (what, n) ->
      check_bool (Printf.sprintf "%s (%d)" what n) true (n > 0))
    [
      ("interchangeable paths", !classes);
      ("grow skips", !skips);
      ("grow skips on two-word tables", !wide_skips);
      ("truncated enumerations", !capped);
      ("prunable size slots", !pruned);
    ]

(* ------------------------------------------------------------------ *)
(* Noise-free exactness against the simulator's closed form            *)
(* ------------------------------------------------------------------ *)

(* Correlation-complete's own selection, re-solved through its factor
   with the closed-form right-hand side: per row, the log of the true
   probability that every link on the row's paths is good.  Without
   sampling noise, every answerable link (read from a registered,
   identifiable singleton) must come out at its true marginal: this
   checks Algorithm 1, the factor solve and the readout end to end
   against the simulator.  Stationary workloads, where the closed form
   is one distribution; seed 1. *)
let exactness_cell ~scale topology scenario =
  let w = W.prepare (W.spec ~scale ~seed:1 topology scenario) in
  let model = w.W.model and run = w.W.run in
  let _, eng = Correlation_complete.compute model w.W.obs in
  let sel = eng.Prob_engine.selection in
  let b =
    Array.map
      (fun (r : Eqn.row) ->
        let links = Model.links_of_paths model r.Eqn.paths in
        log
          (Tomo_netsim.Run.true_good_prob run
             (Array.of_list (Bitset.to_list links))))
      sel.Algorithm1.rows
  in
  let factor =
    match sel.Algorithm1.factor with
    | Some f -> f
    | None -> Alcotest.fail "Correlation-complete selection without a factor"
  in
  let exact =
    { eng with Prob_engine.values = Tomo_linalg.Sparse_chol.solve factor b }
  in
  let answerable = ref 0 and worst = ref 0.0 in
  Array.iteri
    (fun e entry ->
      match entry with
      | Tomo.Readout.Singleton v when sel.Algorithm1.identifiable.(v) ->
          incr answerable;
          worst :=
            Float.max !worst
              (abs_float
                 (Prob_engine.link_marginal exact e
                 -. Tomo_netsim.Run.true_link_marginal run e))
      | _ -> ())
    sel.Algorithm1.readout.Tomo.Readout.entries;
  (!answerable, !worst)

let test_noise_free_exactness () =
  List.iter
    (fun scale ->
      List.iter
        (fun topology ->
          List.iter
            (fun scenario ->
              let tag =
                Printf.sprintf "%s %s %s" (W.scale_to_string scale)
                  (W.topology_to_string topology)
                  (Tomo_netsim.Scenario.kind_to_string scenario)
              in
              let answerable, worst = exactness_cell ~scale topology scenario in
              check_bool (tag ^ ": answerable links") true (answerable > 0);
              if worst > 1e-9 then
                Alcotest.failf "%s: an answerable marginal is off by %.3g" tag
                  worst)
            Tomo_netsim.Scenario.[ Random; Concentrated; No_independence ])
        [ W.Brite; W.Sparse ])
    [ W.Small; W.Medium ]

(* ------------------------------------------------------------------ *)
(* Degenerate models                                                   *)
(* ------------------------------------------------------------------ *)

module Engine = Tomo_stream.Engine

(* Every full window of [cols]: Algorithm 1 must select what the
   reference selects, and the streaming engine must report what a batch
   run over the same intervals reports, marginals bit for bit. *)
let check_degenerate name model ~window cols =
  let engine = Engine.create ~model ~window () in
  Array.iteri
    (fun i col ->
      let tick = i + 1 in
      let streamed = Engine.ingest engine (Bitset.copy col) in
      if tick >= window then begin
        let obs =
          Observations.create ~t_intervals:window ~n_paths:model.Model.n_paths
        in
        for j = 0 to window - 1 do
          Observations.set_interval_statuses obs ~interval:j
            ~good:cols.(tick - window + j)
        done;
        let tag = Printf.sprintf "%s, tick %d" name tick in
        check_bool (tag ^ ": selection ≡ reference") true
          (selections_equal (Algorithm1.select model obs)
             (Reference.select model obs));
        let batch, eng = Correlation_complete.compute model obs in
        match streamed with
        | None -> Alcotest.failf "%s: no streamed estimate" tag
        | Some e ->
            let s = e.Engine.result in
            check_bool (tag ^ ": marginals bitwise") true
              (Array.for_all2 same_bits s.Pc_result.marginals
                 batch.Pc_result.marginals);
            check_bool (tag ^ ": identifiable") true
              (s.Pc_result.identifiable = batch.Pc_result.identifiable);
            Alcotest.(check string)
              (tag ^ ": report")
              (Engine.report_to_string ~window
                 { Engine.tick; result = batch; engine = eng })
              (Engine.report_to_string ~window e)
      end)
    cols

(* Six links in two sets, four paths; [extra] more links on no path. *)
let degenerate_model ?(extra = 0) ?corr_sets () =
  let n_links = 6 + extra in
  let corr_sets =
    match corr_sets with
    | Some c -> c
    | None ->
        [|
          Array.init (3 + extra) (fun e -> if e < 3 then e else e + 3);
          [| 3; 4; 5 |];
        |]
  in
  Model.make ~n_links
    ~paths:[| [| 0; 1; 3 |]; [| 1; 2 |]; [| 2; 4; 5 |]; [| 0; 5 |] |]
    ~corr_sets

let random_columns seed model n =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let b = Bitset.create model.Model.n_paths in
      for p = 0 to model.Model.n_paths - 1 do
        if Rng.bool rng ~p:0.5 then Bitset.set b p
      done;
      b)

let test_degenerate_models () =
  let model = degenerate_model () in
  let all_good = Bitset.create 4 in
  Bitset.set_all all_good;
  check_degenerate "every path always good" model ~window:3
    (Array.make 8 all_good);
  check_degenerate "every path always bad" model ~window:3
    (Array.make 8 (Bitset.create 4));
  let singles =
    degenerate_model ~corr_sets:(Array.init 6 (fun e -> [| e |])) ()
  in
  check_degenerate "single-link correlation sets" singles ~window:4
    (random_columns 1 singles 12);
  let uncovered = degenerate_model ~extra:3 () in
  check_degenerate "links on no path" uncovered ~window:4
    (random_columns 2 uncovered 12);
  check_degenerate "window 1" model ~window:1 (random_columns 3 model 10)

let test_readout_range_checks () =
  let m, eng = solve_case1 ~t:200 () in
  let n = m.Model.n_links in
  List.iter
    (fun e ->
      Alcotest.check_raises
        (Printf.sprintf "link_marginal %d" e)
        (Invalid_argument "Prob_engine.link_marginal: link out of range")
        (fun () -> ignore (Prob_engine.link_marginal eng e));
      Alcotest.check_raises
        (Printf.sprintf "link_marginal_with %d" e)
        (Invalid_argument "Prob_engine.link_marginal: link out of range")
        (fun () -> ignore (Prob_engine.link_marginal_with `Split eng e));
      Alcotest.check_raises
        (Printf.sprintf "link_identifiable %d" e)
        (Invalid_argument "Prob_engine.link_identifiable: link out of range")
        (fun () -> ignore (Prob_engine.link_identifiable eng e)))
    [ -1; n ];
  (* both ends of the valid range still answer *)
  List.iter
    (fun e ->
      ignore (Prob_engine.link_marginal eng e);
      ignore (Prob_engine.link_identifiable eng e))
    [ 0; n - 1 ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "algorithms"
    [
      ( "algorithm1",
        [
          Alcotest.test_case "Case 1: full rank, 5 equations" `Quick
            test_alg1_case1_full_rank;
          Alcotest.test_case "Case 2: Identifiability++ fails" `Quick
            test_alg1_case2_nonidentifiable;
          Alcotest.test_case "selected rows are independent" `Quick
            test_alg1_rows_are_independent;
          Alcotest.test_case "restriction to potentially congested" `Quick
            test_alg1_effective_restriction;
          Alcotest.test_case "reports equations_formed via registry" `Quick
            test_alg1_reports_equations_formed;
        ] );
      ( "prob_engine",
        [
          Alcotest.test_case "recovers subset good-probs" `Slow
            test_engine_recovers_good_probs;
          Alcotest.test_case "link marginals" `Slow
            test_engine_link_marginals;
          Alcotest.test_case "congestion probabilities" `Slow
            test_engine_congestion_prob;
          Alcotest.test_case "Case-2 non-identifiability" `Slow
            test_engine_case2_unidentifiable;
          Alcotest.test_case "always-good links report 0" `Quick
            test_engine_always_good_marginal_zero;
          Alcotest.test_case "solve from counts == solve" `Quick
            test_engine_solve_with_counts;
          Alcotest.test_case "pattern log-probabilities" `Slow
            test_engine_pattern_logprob;
          qc prop_engine_probabilities_in_range;
        ] );
      ( "pc_baselines",
        [
          Alcotest.test_case "Independence correct when independent" `Slow
            test_independence_pc_uncorrelated;
          Alcotest.test_case "Independence breaks under correlation" `Slow
            test_independence_pc_breaks_under_correlation;
          Alcotest.test_case "Correlation-heuristic sane" `Slow
            test_correlation_heuristic_runs;
          Alcotest.test_case "complete forms fewer equations" `Slow
            test_correlation_complete_fewer_rows;
          Alcotest.test_case "factorized solve == CGLS (1e-8)" `Slow
            test_factorized_matches_cgls;
        ] );
      ( "sparsity",
        [
          Alcotest.test_case "paper's Fig.1 inference" `Quick
            test_sparsity_paper_example;
          Alcotest.test_case "paper's counterexample scoring" `Quick
            test_sparsity_counterexample_metrics;
          Alcotest.test_case "good paths exonerate links" `Quick
            test_sparsity_good_paths_exonerate;
          Alcotest.test_case "no congestion" `Quick test_sparsity_all_good;
          Alcotest.test_case "on a tree (subtree root)" `Quick
            test_sparsity_on_tree;
        ] );
      ( "bayesian",
        [
          Alcotest.test_case "§3.1 worked example" `Quick
            test_bayesian_independence_worked_example;
          Alcotest.test_case "prefers likely links" `Quick
            test_bayesian_independence_prefers_likely;
          Alcotest.test_case "correlation-aware MAP" `Slow
            test_bayesian_correlation_uses_joint;
          Alcotest.test_case "solution likelihood ranking" `Slow
            test_solution_logprob_ranks_truth;
        ] );
      ( "properties",
        [
          qc prop_selection_rows_well_formed;
          qc prop_selection_witness_parity;
          qc prop_selection_rank_consistent;
          qc prop_sparsity_consistent;
          qc prop_bayesian_ind_consistent;
          qc prop_bayesian_corr_consistent;
          qc prop_identifiable_good_probs_in_range;
        ] );
      ( "readout",
        [
          qc prop_readout_complete;
          qc prop_readout_resampled;
          qc prop_readout_heuristic;
          qc prop_grow_matches_reference;
          Alcotest.test_case "every readout branch exercised" `Quick
            test_readout_branches_exercised;
          Alcotest.test_case "small workloads ≡ references" `Slow
            test_readout_and_grow_on_workloads;
          Alcotest.test_case "link range checks" `Quick
            test_readout_range_checks;
        ] );
      ( "selection",
        [
          qc prop_seed_systems_match_sorted_merge;
          qc prop_grow_order_matches_array_sort;
          Alcotest.test_case "70-link set: Algorithm 1 ≡ reference" `Quick
            test_wide_set_selection;
          Alcotest.test_case "rebuilt from its decision ≡ select" `Quick
            test_rebuilt_selection;
        ] );
      ( "signatures",
        [
          qc prop_signature_enumeration;
          qc prop_signature_registry_pools_rows;
          qc prop_signature_select;
          qc prop_heuristic_matches_oracle;
          Alcotest.test_case "skips, caps and prunes exercised" `Quick
            test_signature_cases_exercised;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "noise-free answerable marginals (12 cells)" `Slow
            test_noise_free_exactness;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "select ≡ reference, stream ≡ batch" `Quick
            test_degenerate_models;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "CIs bracket estimates" `Slow
            test_confidence_brackets_point;
          Alcotest.test_case "narrower with more data" `Slow
            test_confidence_narrows_with_t;
          Alcotest.test_case "subset CI" `Slow test_confidence_subset_ci;
          Alcotest.test_case "validation" `Quick test_confidence_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "edge cases" `Quick test_metrics_edge_cases;
          Alcotest.test_case "mean absolute error" `Quick test_metrics_mae;
          qc prop_metrics_bounds;
        ] );
    ]
