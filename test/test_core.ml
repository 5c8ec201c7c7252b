(* Tests for the core model layer: Model, Observations, Subsets, Eqn —
   including exact reproduction of the worked examples in the paper
   (Fig. 1 coverage tables, §5.2 definitions, Fig. 2(b) equations). *)

module Bitset = Tomo_util.Bitset
module Model = Tomo.Model
module Observations = Tomo.Observations
module Subsets = Tomo.Subsets
module Eqn = Tomo.Eqn
module Toy = Tomo.Toy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))
let checkf = Alcotest.(check (float 1e-9))

let e1, e2, e3, e4 = (Toy.e1, Toy.e2, Toy.e3, Toy.e4)
let p1, p2, p3 = (Toy.p1, Toy.p2, Toy.p3)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model_build () =
  let m = Toy.case1 () in
  check_int "links" 4 m.Model.n_links;
  check_int "paths" 3 m.Model.n_paths;
  check_int "correlation sets" 3 (Model.n_corr_sets m);
  check_ints "corr of links" [ 0; 1; 1; 2 ]
    (Array.to_list m.Model.corr_of_link)

let test_model_coverage_paths () =
  (* §5.2: Paths({e1,e2}) = {p1,p2}; Paths({e1,e3}) = {p1,p2,p3}. *)
  let m = Toy.case1 () in
  check_ints "Paths({e1,e2})" [ p1; p2 ]
    (Bitset.to_list (Model.paths_of_links m [| e1; e2 |]));
  check_ints "Paths({e1,e3})" [ p1; p2; p3 ]
    (Bitset.to_list (Model.paths_of_links m [| e1; e3 |]))

let test_model_coverage_links () =
  (* §5.2: Links({p1}) = {e1,e2}; Links({p1,p2}) = {e1,e2,e3}. *)
  let m = Toy.case1 () in
  check_ints "Links({p1})" [ e1; e2 ]
    (Bitset.to_list (Model.links_of_paths m [| p1 |]));
  check_ints "Links({p1,p2})" [ e1; e2; e3 ]
    (Bitset.to_list (Model.links_of_paths m [| p1; p2 |]))

let test_model_identifiability () =
  (* Condition 1 holds in the toy topology: link path-sets all differ. *)
  let m = Toy.case1 () in
  check_bool "toy satisfies Condition 1" true
    (Model.identifiability m = None);
  (* Two links in series on the same single path violate it. *)
  let m2 =
    Model.make ~n_links:2 ~paths:[| [| 0; 1 |] |] ~corr_sets:[| [| 0; 1 |] |]
  in
  match Model.identifiability m2 with
  | Some (0, 1) -> ()
  | _ -> Alcotest.fail "expected violating pair (0,1)"

let test_model_validation () =
  Alcotest.check_raises "non-partition rejected"
    (Invalid_argument "Model.make: link missing from correlation sets")
    (fun () ->
      ignore
        (Model.make ~n_links:2 ~paths:[| [| 0 |] |] ~corr_sets:[| [| 0 |] |]));
  Alcotest.check_raises "duplicate corr membership"
    (Invalid_argument "Model.make: link in two correlation sets")
    (fun () ->
      ignore
        (Model.make ~n_links:1 ~paths:[| [| 0 |] |]
           ~corr_sets:[| [| 0 |]; [| 0 |] |]));
  Alcotest.check_raises "loopy path rejected"
    (Invalid_argument "Model.make: path traverses a link twice") (fun () ->
      ignore
        (Model.make ~n_links:1 ~paths:[| [| 0; 0 |] |]
           ~corr_sets:[| [| 0 |] |]))

(* ------------------------------------------------------------------ *)
(* Observations                                                        *)
(* ------------------------------------------------------------------ *)

(* Four intervals with congested links {e1}, {e2}, {e3}, {e4}: every
   path is congested at least once. *)
let busy_obs () =
  Toy.observations
    ~interval_states:[| [ e1 ]; [ e2 ]; [ e3 ]; [ e4 ] |]

let test_obs_counts () =
  let obs = busy_obs () in
  check_int "T" 4 (Observations.t_intervals obs);
  check_int "paths" 3 (Observations.n_paths obs);
  (* p1 = (e1,e2): congested at t0 and t1, good at t2, t3. *)
  check_int "p1 good twice" 2 (Observations.all_good_count obs [| p1 |]);
  (* p1 and p2 jointly good only at t3 (t2 kills p2 via e3). *)
  check_int "p1,p2 jointly good once" 1
    (Observations.all_good_count obs [| p1; p2 |]);
  check_int "empty set good always" 4 (Observations.all_good_count obs [||])

let test_obs_log_prob_smoothing () =
  let obs = busy_obs () in
  checkf "add-half smoothing"
    (log ((2.0 +. 0.5) /. 5.0))
    (Observations.log_all_good_prob obs [| p1 |]);
  (* All three paths never jointly good; smoothing keeps log finite. *)
  let lp = Observations.log_all_good_prob obs [| p1; p2; p3 |] in
  check_bool "finite log of zero count" true (Float.is_finite lp);
  checkf "zero count value" (log (0.5 /. 5.0)) lp

let test_obs_always_good () =
  (* Only e1 ever congested: p3 = (e4,e3) is always good. *)
  let obs = Toy.observations ~interval_states:[| [ e1 ]; [ e1 ]; [] |] in
  check_bool "p3 always good" true (Observations.always_good obs ~path:p3);
  check_bool "p1 not always good" false
    (Observations.always_good obs ~path:p1);
  checkf "p1 good frac" (1.0 /. 3.0) (Observations.good_frac obs ~path:p1)

let test_obs_interval_views () =
  let obs = busy_obs () in
  (* t0: e1 congested => p1, p2 congested; p3 good. *)
  check_ints "congested paths at t0" [ p1; p2 ]
    (Bitset.to_list (Observations.congested_paths_at obs ~interval:0));
  check_ints "good paths at t0" [ p3 ]
    (Bitset.to_list (Observations.good_paths_at obs ~interval:0));
  check_bool "cell query" true
    (Observations.good_in_interval obs ~path:p3 ~interval:0)

(* ------------------------------------------------------------------ *)
(* Subsets                                                             *)
(* ------------------------------------------------------------------ *)

let test_effective_links () =
  (* §5.2 example: "suppose path p3 is always good, whereas the other two
     paths are not; this means that links e3 and e4 are always good,
     hence, the potentially congested correlation subsets are {e1} and
     {e2}." *)
  let m = Toy.case1 () in
  let obs =
    Toy.observations ~interval_states:[| [ e1 ]; [ e2 ]; [] |]
  in
  let eff = Subsets.effective_links m obs in
  check_ints "potentially congested links" [ e1; e2 ] (Bitset.to_list eff);
  let subsets =
    Subsets.enumerate m ~effective:eff ~max_size:3 ~limit_per_set:100
  in
  check_ints "potentially congested subsets"
    [ e1; e2 ]
    (List.map (fun s -> s.Subsets.links.(0)) subsets);
  check_bool "all singletons" true
    (List.for_all (fun s -> Array.length s.Subsets.links = 1) subsets)

let all_effective m =
  let eff = Bitset.create m.Model.n_links in
  Bitset.set_all eff;
  eff

let test_complement () =
  (* §5.2: complements within correlation sets — {e2}ᶜ = {e3},
     {e3}ᶜ = {e2}, {e1}ᶜ = ∅, {e2,e3}ᶜ = ∅. *)
  let m = Toy.case1 () in
  let eff = all_effective m in
  let comp links corr =
    Array.to_list
      (Subsets.complement m ~effective:eff (Subsets.make m ~corr links))
  in
  check_ints "complement of {e2}" [ e3 ] (comp [| e2 |] 1);
  check_ints "complement of {e3}" [ e2 ] (comp [| e3 |] 1);
  check_ints "complement of {e1}" [] (comp [| e1 |] 0);
  check_ints "complement of {e2,e3}" [] (comp [| e2; e3 |] 1)

let test_candidate_paths_table () =
  (* The Paths(E) \ Paths(Ē) table of the Algorithm 1 walkthrough. *)
  let m = Toy.case1 () in
  let eff = all_effective m in
  let pool links corr =
    Bitset.to_list
      (Subsets.candidate_paths m ~effective:eff (Subsets.make m ~corr links))
  in
  check_ints "{e1} -> {p1,p2}" [ p1; p2 ] (pool [| e1 |] 0);
  check_ints "{e2} -> {p1}" [ p1 ] (pool [| e2 |] 1);
  check_ints "{e3} -> {p2,p3}" [ p2; p3 ] (pool [| e3 |] 1);
  check_ints "{e4} -> {p3}" [ p3 ] (pool [| e4 |] 2);
  check_ints "{e2,e3} -> {p1,p2,p3}" [ p1; p2; p3 ] (pool [| e2; e3 |] 1)

let test_inducible () =
  let m = Toy.case2 () in
  let eff = all_effective m in
  check_bool "{e1,e4} inducible in Case 2" true
    (Subsets.inducible m ~effective:eff (Subsets.make m ~corr:0 [| e1; e4 |]));
  (* A chain: every path through link a also crosses link b of the same
     correlation set => {a} alone can never be induced. *)
  let chain =
    Model.make ~n_links:2
      ~paths:[| [| 0; 1 |]; [| 1 |] |]
      ~corr_sets:[| [| 0; 1 |] |]
  in
  let eff2 = all_effective chain in
  check_bool "chained singleton not inducible" false
    (Subsets.inducible chain ~effective:eff2
       (Subsets.make chain ~corr:0 [| 0 |]));
  check_bool "chain pair inducible" true
    (Subsets.inducible chain ~effective:eff2
       (Subsets.make chain ~corr:0 [| 0; 1 |]))

let test_enumerate_case1 () =
  (* With everything potentially congested, Case 1's subsets are exactly
     the paper's Ê = {e1}, {e2}, {e3}, {e4}, {e2,e3}. *)
  let m = Toy.case1 () in
  let eff = all_effective m in
  let subsets =
    Subsets.enumerate m ~effective:eff ~max_size:3 ~limit_per_set:100
  in
  let keys = List.map Subsets.key subsets |> List.sort compare in
  Alcotest.(check (list string))
    "case-1 subsets"
    (List.sort compare [ "0:0"; "1:1"; "1:2"; "1:1,2"; "2:3" ])
    keys

(* Both truncation paths of [enumerate] must count once into
   [subsets_enumeration_capped] — the visit-budget path used to stop
   silently, under-reporting Ê incompleteness. *)
let with_metrics f =
  Tomo_obs.Metrics.set_enabled true;
  Tomo_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tomo_obs.Metrics.set_enabled false;
      Tomo_obs.Metrics.reset ())
    f

let counter name = Tomo_obs.Metrics.counter_value (Tomo_obs.Metrics.counter name)

let test_enumerate_found_cap () =
  (* Three independent links (one path each): all 7 subsets inducible,
     so a find cap of 2 stops at the third visit with work remaining. *)
  let m =
    Model.make ~n_links:3
      ~paths:[| [| 0 |]; [| 1 |]; [| 2 |] |]
      ~corr_sets:[| [| 0; 1; 2 |] |]
  in
  let eff = all_effective m in
  with_metrics (fun () ->
      let subsets =
        Subsets.enumerate m ~effective:eff ~max_size:3 ~limit_per_set:2
      in
      check_int "find cap respected" 2 (List.length subsets);
      check_int "truncation counted once" 1
        (counter "subsets_enumeration_capped");
      check_int "found counted" 2 (counter "subsets_enumerated"))

let test_enumerate_budget_cap () =
  (* A 6-link chain covered by one path: nothing of size <= 3 is
     inducible, and the visit budget (limit_per_set * 4 = 4) runs out
     during size 1 with subsets left — the truncation the old code
     forgot to count.  With pruning the skipped visits are charged
     arithmetically, so the counter and result are identical; only
     [ident_pruned_sets] records the saved work. *)
  let m =
    Model.make ~n_links:6
      ~paths:[| [| 0; 1; 2; 3; 4; 5 |] |]
      ~corr_sets:[| [| 0; 1; 2; 3; 4; 5 |] |]
  in
  let eff = all_effective m in
  Fun.protect
    ~finally:(fun () -> Subsets.set_ident_prune true)
    (fun () ->
      List.iter
        (fun prune ->
          Subsets.set_ident_prune prune;
          with_metrics (fun () ->
              let subsets =
                Subsets.enumerate m ~effective:eff ~max_size:3
                  ~limit_per_set:1
              in
              let tag = if prune then "pruned" else "exhaustive" in
              check_int (tag ^ ": nothing found") 0 (List.length subsets);
              check_int
                (tag ^ ": budget truncation counted once")
                1
                (counter "subsets_enumeration_capped");
              check_int
                (tag ^ ": pruned visits recorded")
                (if prune then 4 else 0)
                (counter "ident_pruned_sets")))
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Direct array filters vs the list-based originals                    *)
(* ------------------------------------------------------------------ *)

let random_model rng =
  let n_links = 1 + Tomo_util.Rng.int rng 10 in
  (* Random partition into correlation sets. *)
  let n_corr = 1 + Tomo_util.Rng.int rng n_links in
  let assignment = Array.init n_links (fun _ -> Tomo_util.Rng.int rng n_corr) in
  let corr_sets =
    Array.init n_corr (fun c ->
        Array.of_list
          (List.filter
             (fun e -> assignment.(e) = c)
             (List.init n_links Fun.id)))
    |> Array.to_list
    |> List.filter (fun s -> Array.length s > 0)
    |> Array.of_list
  in
  let n_paths = 1 + Tomo_util.Rng.int rng 8 in
  let paths =
    Array.init n_paths (fun _ ->
        let links =
          List.filter
            (fun _ -> Tomo_util.Rng.bool rng ~p:0.4)
            (List.init n_links Fun.id)
        in
        match links with
        | [] -> [| Tomo_util.Rng.int rng n_links |]
        | l -> Array.of_list l)
  in
  Model.make ~n_links ~paths ~corr_sets

let random_effective rng m =
  let eff = Bitset.create m.Model.n_links in
  for e = 0 to m.Model.n_links - 1 do
    if Tomo_util.Rng.bool rng ~p:0.7 then Bitset.set eff e
  done;
  eff

let prop_effective_corr_set_matches_list =
  QCheck.Test.make ~name:"effective_corr_set equals list filter" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Tomo_util.Rng.create (7919 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      let ok = ref true in
      for c = 0 to Model.n_corr_sets m - 1 do
        let reference =
          Array.to_list (Model.corr_set_links m c)
          |> List.filter (Bitset.get eff)
        in
        if
          Array.to_list (Subsets.effective_corr_set m ~effective:eff c)
          <> reference
        then ok := false
      done;
      !ok)

let prop_complement_matches_list =
  QCheck.Test.make ~name:"complement equals list filter" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Tomo_util.Rng.create (104729 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      let ok = ref true in
      for c = 0 to Model.n_corr_sets m - 1 do
        let links = Model.corr_set_links m c in
        (* every non-empty subset of the first few links of the set *)
        let pool = Array.sub links 0 (min 3 (Array.length links)) in
        List.iter
          (fun subset ->
            if subset <> [] then begin
              let s = Subsets.make m ~corr:c (Array.of_list subset) in
              let reference =
                Array.to_list links
                |> List.filter (fun e ->
                       Bitset.get eff e && not (List.mem e subset))
              in
              if
                Array.to_list (Subsets.complement m ~effective:eff s)
                <> reference
              then ok := false
            end)
          (List.filteri (fun _ _ -> true)
             (let rec powerset = function
                | [] -> [ [] ]
                | x :: rest ->
                    let p = powerset rest in
                    p @ List.map (fun s -> x :: s) p
              in
              powerset (Array.to_list pool)))
      done;
      !ok)

let test_subset_canonicalization () =
  let m = Toy.case1 () in
  let a = Subsets.make m ~corr:1 [| e3; e2 |] in
  let b = Subsets.make m ~corr:1 [| e2; e3 |] in
  check_bool "order-insensitive" true (Subsets.equal a b);
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Subsets.make: duplicate link") (fun () ->
      ignore (Subsets.make m ~corr:1 [| e2; e2 |]));
  Alcotest.check_raises "foreign link rejected"
    (Invalid_argument "Subsets.make: link outside correlation set")
    (fun () -> ignore (Subsets.make m ~corr:1 [| e1 |]))

(* ------------------------------------------------------------------ *)
(* Eqn                                                                 *)
(* ------------------------------------------------------------------ *)

let test_induced_subsets_fig2b () =
  (* Fig. 2(b): the equation for {p1,p2} involves P(Xe1=0) and
     P(Xe2=0,Xe3=0); for {p2,p3}: P(Xe1=0), P(Xe3=0), P(Xe4=0). *)
  let m = Toy.case1 () in
  let eff = all_effective m in
  let induced paths =
    Eqn.induced_subsets m ~effective:eff
      ~links:(Model.links_of_paths m paths)
    |> List.map Subsets.key |> List.sort compare
  in
  Alcotest.(check (list string))
    "{p1,p2} induces {e1},{e2,e3}"
    [ "0:0"; "1:1,2" ]
    (induced [| p1; p2 |]);
  Alcotest.(check (list string))
    "{p2,p3} induces {e1},{e3},{e4}"
    [ "0:0"; "1:2"; "2:3" ]
    (induced [| p2; p3 |]);
  Alcotest.(check (list string))
    "{p1,p2,p3} induces {e1},{e2,e3},{e4}"
    [ "0:0"; "1:1,2"; "2:3" ]
    (induced [| p1; p2; p3 |])

let test_row_frozen_vs_grow () =
  let m = Toy.case1 () in
  let eff = all_effective m in
  let reg = Eqn.registry () in
  (* Frozen lookup on an empty registry fails... *)
  (match Eqn.row m ~effective:eff reg ~paths:[| p1 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "row should be unrepresentable");
  (* ...growing registers {e1} and {e2}. *)
  (match Eqn.row_grow m ~effective:eff reg ~paths:[| p1 |] with
  | Some r -> check_int "two vars" 2 (Array.length r.Eqn.vars)
  | None -> Alcotest.fail "row_grow must succeed");
  check_int "registry grew" 2 (Eqn.n_vars reg);
  (* Now the frozen lookup succeeds too. *)
  match Eqn.row m ~effective:eff reg ~paths:[| p1 |] with
  | Some r -> check_int "same two vars" 2 (Array.length r.Eqn.vars)
  | None -> Alcotest.fail "row must now be representable"

let test_row_no_effective_links () =
  let m = Toy.case1 () in
  let eff = Bitset.create 4 in
  (* nothing effective *)
  let reg = Eqn.registry () in
  match Eqn.row_grow m ~effective:eff reg ~paths:[| p1 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "no effective links => no row"

let test_register_single_path_vars () =
  let m = Toy.case1 () in
  let eff = all_effective m in
  let reg = Eqn.registry () in
  let added = Eqn.register_single_path_vars m ~effective:eff reg in
  (* p1: {e1},{e2}; p2: {e1},{e3}; p3: {e3},{e4} -> 4 distinct vars. *)
  check_int "4 single-path vars" 4 added;
  check_int "registry size" 4 (Eqn.n_vars reg)

let test_registry_roundtrip () =
  let m = Toy.case1 () in
  let reg = Eqn.registry () in
  let s = Subsets.make m ~corr:1 [| e2; e3 |] in
  let v = Eqn.add reg s in
  check_int "stable id" v (Eqn.add reg s);
  check_bool "roundtrip" true (Subsets.equal s (Eqn.subset_of_var reg v));
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Eqn.subset_of_var: unknown variable") (fun () ->
      ignore (Eqn.subset_of_var reg 99))

(* ------------------------------------------------------------------ *)
(* Observations serialization                                          *)
(* ------------------------------------------------------------------ *)

module Observations_io = Tomo.Observations_io

let obs_equal a b =
  Observations.t_intervals a = Observations.t_intervals b
  && Observations.n_paths a = Observations.n_paths b
  &&
  let ok = ref true in
  for p = 0 to Observations.n_paths a - 1 do
    for i = 0 to Observations.t_intervals a - 1 do
      if
        Observations.good_in_interval a ~path:p ~interval:i
        <> Observations.good_in_interval b ~path:p ~interval:i
      then ok := false
    done
  done;
  !ok

let test_obs_io_roundtrip () =
  let obs = busy_obs () in
  let obs' = Observations_io.of_string (Observations_io.to_string obs) in
  check_bool "roundtrip" true (obs_equal obs obs')

let test_obs_io_file_roundtrip () =
  let obs = busy_obs () in
  let path = Filename.temp_file "tomo_obs" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Observations_io.save path obs;
      check_bool "file roundtrip" true
        (obs_equal obs (Observations_io.load path)))

let test_obs_io_rejects_garbage () =
  (try
     ignore (Observations_io.of_string "nope");
     Alcotest.fail "garbage accepted"
   with Failure _ -> ());
  (try
     ignore
       (Observations_io.of_string
          "tomo-observations v1\npaths 1 intervals 3\nrow 0 10\n");
     Alcotest.fail "short row accepted"
   with Failure _ -> ());
  try
    ignore
      (Observations_io.of_string
         "tomo-observations v1\npaths 2 intervals 2\nrow 0 11\n");
    Alcotest.fail "missing row accepted"
  with Failure _ -> ()

let test_obs_resample_preserves_shape () =
  let obs = busy_obs () in
  let rng = Tomo_util.Rng.create 3 in
  let r = Observations.resample obs rng in
  check_int "same T" (Observations.t_intervals obs)
    (Observations.t_intervals r);
  check_int "same paths" (Observations.n_paths obs)
    (Observations.n_paths r)

let prop_resample_frequency_stable =
  QCheck.Test.make
    ~name:"bootstrap resampling keeps good-fractions near the original"
    ~count:20 (QCheck.int_range 0 5_000) (fun seed ->
      let rng = Tomo_util.Rng.create seed in
      let states =
        Array.init 400 (fun _ ->
            if Tomo_util.Rng.bool rng ~p:0.3 then [ e1 ] else [])
      in
      let obs = Toy.observations ~interval_states:states in
      let r = Observations.resample obs (Tomo_util.Rng.create (seed + 1)) in
      abs_float
        (Observations.good_frac obs ~path:p1
        -. Observations.good_frac r ~path:p1)
      < 0.15)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "model",
        [
          Alcotest.test_case "construction" `Quick test_model_build;
          Alcotest.test_case "Paths(E) (paper §5.2)" `Quick
            test_model_coverage_paths;
          Alcotest.test_case "Links(P) (paper §5.2)" `Quick
            test_model_coverage_links;
          Alcotest.test_case "Condition 1 check" `Quick
            test_model_identifiability;
          Alcotest.test_case "validation" `Quick test_model_validation;
        ] );
      ( "observations",
        [
          Alcotest.test_case "joint good counts" `Quick test_obs_counts;
          Alcotest.test_case "log-prob smoothing" `Quick
            test_obs_log_prob_smoothing;
          Alcotest.test_case "always-good paths" `Quick test_obs_always_good;
          Alcotest.test_case "interval views" `Quick test_obs_interval_views;
        ] );
      ( "subsets",
        [
          Alcotest.test_case "potentially congested (paper §5.2)" `Quick
            test_effective_links;
          Alcotest.test_case "complements (paper §5.2)" `Quick
            test_complement;
          Alcotest.test_case "Paths(E)\\Paths(Ē) table (Alg. 1)" `Quick
            test_candidate_paths_table;
          Alcotest.test_case "inducibility" `Quick test_inducible;
          Alcotest.test_case "Case-1 enumeration = paper Ê" `Quick
            test_enumerate_case1;
          Alcotest.test_case "canonicalization" `Quick
            test_subset_canonicalization;
          Alcotest.test_case "find-cap truncation counted" `Quick
            test_enumerate_found_cap;
          Alcotest.test_case "budget truncation counted (both modes)"
            `Quick test_enumerate_budget_cap;
          qc prop_effective_corr_set_matches_list;
          qc prop_complement_matches_list;
        ] );
      ( "eqn",
        [
          Alcotest.test_case "Fig. 2(b) induced subsets" `Quick
            test_induced_subsets_fig2b;
          Alcotest.test_case "frozen vs growing rows" `Quick
            test_row_frozen_vs_grow;
          Alcotest.test_case "no effective links" `Quick
            test_row_no_effective_links;
          Alcotest.test_case "single-path var registration" `Quick
            test_register_single_path_vars;
          Alcotest.test_case "registry roundtrip" `Quick
            test_registry_roundtrip;
        ] );
      ( "observations_io",
        [
          Alcotest.test_case "string roundtrip" `Quick
            test_obs_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick
            test_obs_io_file_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_obs_io_rejects_garbage;
          Alcotest.test_case "resample shape" `Quick
            test_obs_resample_preserves_shape;
          QCheck_alcotest.to_alcotest prop_resample_frequency_stable;
        ] );
    ]
