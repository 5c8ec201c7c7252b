(* Tests for the core model layer: Model, Observations, Subsets, Eqn —
   including exact reproduction of the worked examples in the paper
   (Fig. 1 coverage tables, §5.2 definitions, Fig. 2(b) equations). *)

module Bitset = Tomo_util.Bitset
module Model = Tomo.Model
module Observations = Tomo.Observations
module Subsets = Tomo.Subsets
module Signatures = Tomo.Signatures
module Eqn = Tomo.Eqn
module Toy = Tomo.Toy
module Bitset_path = Tomo_oracles.Bitset_path

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))
let checkf = Alcotest.(check (float 1e-9))

(* Subsets are canonical, so sorting with [Subsets.compare] makes two
   collections comparable entry by entry. *)
let subset = Alcotest.testable Subsets.pp Subsets.equal
let sorted_subsets l = List.sort Subsets.compare l

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
  let classes m =
    Tomo.Identifiability.ambiguity_classes m
      ~effective:(Tomo.Identifiability.covered_links m)
  in
  check_int "toy satisfies Condition 1" 0 (Array.length (classes (Toy.case1 ())));
  (* Two links in series on the same single path violate it. *)
  let m2 =
    Model.make ~n_links:2 ~paths:[| [| 0; 1 |] |] ~corr_sets:[| [| 0; 1 |] |]
  in
  match classes m2 with
  | [| c |] -> check_ints "violating pair" [ 0; 1 ] (Array.to_list c.links)
  | _ -> Alcotest.fail "expected one class, the pair (0,1)"

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
  checkf "zero count value" (log (0.5 /. 5.0)) lp;
  (* Every count reads its table entry, bit for bit the smoothed
     log-frequency; counts past either end are refused. *)
  let t = Observations.t_intervals obs in
  Array.iteri
    (fun count lp ->
      check_bool
        (Printf.sprintf "count %d" count)
        true
        (Int64.equal
           (Int64.bits_of_float
              (log ((float_of_int count +. 0.5) /. (float_of_int t +. 1.0))))
           (Int64.bits_of_float lp)))
    (Observations.smoothed_log_probs obs (Array.init (t + 1) Fun.id));
  List.iter
    (fun count ->
      Alcotest.check_raises
        (Printf.sprintf "count %d" count)
        (Invalid_argument "Observations.smoothed_log_probs: count out of range")
        (fun () -> ignore (Observations.smoothed_log_probs obs [| 0; count |])))
    [ -1; t + 1 ]

let same_cells a b =
  let ok = ref true in
  for p = 0 to Observations.n_paths a - 1 do
    if Observations.good_count a ~path:p <> Observations.good_count b ~path:p
    then ok := false;
    for i = 0 to Observations.t_intervals a - 1 do
      if
        Observations.good_in_interval a ~path:p ~interval:i
        <> Observations.good_in_interval b ~path:p ~interval:i
      then ok := false
    done
  done;
  !ok

(* Flipping the paths where the stored column and a fresh one differ is
   setting the fresh column: every interval, every fresh column over the
   three paths. *)
let test_obs_flip_interval_statuses () =
  let n = Observations.n_paths (busy_obs ()) in
  for interval = 0 to Observations.t_intervals (busy_obs ()) - 1 do
    for bits = 0 to (1 lsl n) - 1 do
      let fresh = Bitset.create n in
      for p = 0 to n - 1 do
        if bits land (1 lsl p) <> 0 then Bitset.set fresh p
      done;
      let flipped = busy_obs () and set = busy_obs () in
      let changed = Observations.good_paths_at flipped ~interval in
      Bitset.xor_into ~into:changed fresh;
      Observations.flip_interval_statuses flipped ~interval ~changed;
      Observations.set_interval_statuses set ~interval ~good:fresh;
      check_bool
        (Printf.sprintf "interval %d, column %d" interval bits)
        true (same_cells flipped set)
    done
  done

let test_obs_flip_rejects () =
  let obs = busy_obs () in
  let n = Observations.n_paths obs and t = Observations.t_intervals obs in
  List.iter
    (fun interval ->
      Alcotest.check_raises
        (Printf.sprintf "interval %d" interval)
        (Invalid_argument "Observations: interval out of range")
        (fun () ->
          Observations.flip_interval_statuses obs ~interval
            ~changed:(Bitset.create n)))
    [ -1; t ];
  List.iter
    (fun capacity ->
      Alcotest.check_raises
        (Printf.sprintf "capacity %d" capacity)
        (Invalid_argument "Observations.flip_interval_statuses: wrong capacity")
        (fun () ->
          Observations.flip_interval_statuses obs ~interval:0
            ~changed:(Bitset.create capacity)))
    [ n - 1; n + 1 ];
  check_bool "a refused flip leaves the cells alone" true
    (same_cells obs (busy_obs ()))

(* [all_good_count] against a recount interval by interval, on rows of
   1-200 intervals (so partial last words are covered) and queries of
   0-6 paths, repeats included; a path outside the matrix is refused
   wherever it sits in the query. *)
let prop_all_good_count_recount =
  QCheck.Test.make ~name:"all_good_count = bit-by-bit recount" ~count:300
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Tomo_util.Rng.create seed in
      let t = 1 + Tomo_util.Rng.int rng 200
      and n = 1 + Tomo_util.Rng.int rng 8 in
      let density = Tomo_util.Rng.uniform rng ~lo:0.5 ~hi:1.0 in
      let rows =
        Array.init n (fun _ ->
            let b = Bitset.create t in
            for i = 0 to t - 1 do
              if Tomo_util.Rng.bool rng ~p:density then Bitset.set b i
            done;
            b)
      in
      let obs = Observations.make ~t_intervals:t ~path_good:rows in
      let paths =
        Array.init (Tomo_util.Rng.int rng 7) (fun _ -> Tomo_util.Rng.int rng n)
      in
      let recount = ref 0 in
      for i = 0 to t - 1 do
        if Array.for_all (fun p -> Bitset.get rows.(p) i) paths then
          incr recount
      done;
      let at = Tomo_util.Rng.int rng (Array.length paths + 1) in
      let with_stray =
        Array.concat
          [
            Array.sub paths 0 at;
            [| (if Tomo_util.Rng.bool rng ~p:0.5 then -1 else n) |];
            Array.sub paths at (Array.length paths - at);
          ]
      in
      Observations.all_good_count obs paths = !recount
      &&
      match Observations.all_good_count obs with_stray with
      | _ -> false
      | exception Invalid_argument _ -> true)

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

(* The enumeration over a fresh signature table, as a list. *)
let enumerate m ~effective ~max_size ~limit_per_set =
  let table = Signatures.build m ~effective in
  let acc = ref [] in
  Subsets.enumerate table ~max_size ~limit_per_set (fun corr mask ->
      acc := Subsets.of_mask table ~corr mask 0 :: !acc);
  List.rev !acc

(* [links]' mask on [table], in its format. *)
let mask_of (table : Signatures.t) links =
  let mask = Array.make table.Signatures.words 0 in
  Array.iter
    (fun e ->
      let i = table.Signatures.link_pos.(e) in
      let j = table.Signatures.pos_word.(i) in
      mask.(j) <- mask.(j) lor table.Signatures.pos_bit.(i))
    links;
  mask

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
    enumerate m ~effective:eff ~max_size:3 ~limit_per_set:100
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
      (Bitset_path.complement m ~effective:eff (Subsets.make m ~corr links))
  in
  check_ints "complement of {e2}" [ e3 ] (comp [| e2 |] 1);
  check_ints "complement of {e3}" [ e2 ] (comp [| e3 |] 1);
  check_ints "complement of {e1}" [] (comp [| e1 |] 0);
  check_ints "complement of {e2,e3}" [] (comp [| e2; e3 |] 1)

let test_candidate_paths_table () =
  (* The Paths(E) \ Paths(Ē) table of the Algorithm 1 walkthrough, read
     off the signature table and the bit-set path alike. *)
  let m = Toy.case1 () in
  let eff = all_effective m in
  let table = Signatures.build m ~effective:eff in
  let pool links corr =
    let oracle =
      Bitset.to_list
        (Bitset_path.candidate_paths m ~effective:eff
           (Subsets.make m ~corr links))
    in
    check_ints "table ≡ bit-set path" oracle
      (Array.to_list (Signatures.pool table ~corr (mask_of table links) 0));
    oracle
  in
  check_ints "{e1} -> {p1,p2}" [ p1; p2 ] (pool [| e1 |] 0);
  check_ints "{e2} -> {p1}" [ p1 ] (pool [| e2 |] 1);
  check_ints "{e3} -> {p2,p3}" [ p2; p3 ] (pool [| e3 |] 1);
  check_ints "{e4} -> {p3}" [ p3 ] (pool [| e4 |] 2);
  check_ints "{e2,e3} -> {p1,p2,p3}" [ p1; p2; p3 ] (pool [| e2; e3 |] 1)

let test_inducible () =
  (* The signature table and the bit-set path must agree. *)
  let inducible m ~corr links =
    let effective = all_effective m in
    let table = Signatures.build m ~effective in
    let oracle =
      Bitset_path.inducible m ~effective (Subsets.make m ~corr links)
    in
    check_bool "table ≡ bit-set path" oracle
      (Signatures.inducible table ~corr (mask_of table links) 0);
    oracle
  in
  check_bool "{e1,e4} inducible in Case 2" true
    (inducible (Toy.case2 ()) ~corr:0 [| e1; e4 |]);
  (* A chain: every path through link a also crosses link b of the same
     correlation set => {a} alone can never be induced. *)
  let chain =
    Model.make ~n_links:2
      ~paths:[| [| 0; 1 |]; [| 1 |] |]
      ~corr_sets:[| [| 0; 1 |] |]
  in
  check_bool "chained singleton not inducible" false
    (inducible chain ~corr:0 [| 0 |]);
  check_bool "chain pair inducible" true (inducible chain ~corr:0 [| 0; 1 |])

let test_enumerate_case1 () =
  (* With everything potentially congested, Case 1's subsets are exactly
     the paper's Ê = {e1}, {e2}, {e3}, {e4}, {e2,e3}. *)
  let m = Toy.case1 () in
  let eff = all_effective m in
  let subsets =
    enumerate m ~effective:eff ~max_size:3 ~limit_per_set:100
  in
  let s corr links = Subsets.make m ~corr links in
  Alcotest.(check (list subset))
    "case-1 subsets"
    (sorted_subsets
       [ s 0 [| 0 |]; s 1 [| 1 |]; s 1 [| 2 |]; s 1 [| 1; 2 |]; s 2 [| 3 |] ])
    (sorted_subsets subsets)

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
        enumerate m ~effective:eff ~max_size:3 ~limit_per_set:2
      in
      check_int "find cap respected" 2 (List.length subsets);
      check_int "truncation counted once" 1
        (counter "subsets_enumeration_capped");
      check_int "found counted" 2 (counter "subsets_enumerated"))

let test_enumerate_budget_cap () =
  (* A 6-link chain covered by one path: nothing of size <= 3 is
     inducible, and the visit budget (limit_per_set * 4 = 4) runs out
     during size 1 with subsets left — the truncation the old code
     forgot to count.  Both enumerations, the one on the signature masks
     and the bit-set oracle, visit those 4 subsets and count it once. *)
  let m =
    Model.make ~n_links:6
      ~paths:[| [| 0; 1; 2; 3; 4; 5 |] |]
      ~corr_sets:[| [| 0; 1; 2; 3; 4; 5 |] |]
  in
  let effective = all_effective m in
  List.iter
    (fun (tag, enumerate) ->
      with_metrics (fun () ->
          check_int (tag ^ ": nothing found") 0 (enumerate ());
          check_int
            (tag ^ ": budget truncation counted once")
            1
            (counter "subsets_enumeration_capped");
          check_int (tag ^ ": budget spent") 4
            (counter "combin_subsets_visited")))
    [
      ( "masks",
        fun () ->
          List.length (enumerate m ~effective ~max_size:3 ~limit_per_set:1) );
      ( "bit-set oracle",
        fun () ->
          List.length
            (Bitset_path.enumerate m ~effective ~max_size:3 ~limit_per_set:1)
      );
    ]

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
                Array.to_list (Bitset_path.complement m ~effective:eff s)
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
     P(Xe2=0,Xe3=0); for {p2,p3}: P(Xe1=0), P(Xe3=0), P(Xe4=0).  A
     growing row registers exactly those subsets, in the bit-set path's
     order. *)
  let m = Toy.case1 () in
  let eff = all_effective m in
  let induced paths =
    let oracle =
      Bitset_path.induced_subsets m ~effective:eff
        ~links:(Model.links_of_paths m paths)
    in
    let reg = Eqn.registry (Signatures.build m ~effective:eff) in
    (match Eqn.row_grow (Eqn.resolver reg) ~paths with
    | Some r ->
        Alcotest.(check (list subset))
          "registered in the bit-set path's order" oracle
          (List.init (Array.length r.Eqn.vars) (Eqn.subset_of_var reg))
    | None -> Alcotest.fail "row_grow must succeed");
    sorted_subsets oracle
  in
  let s corr links = Subsets.make m ~corr links in
  Alcotest.(check (list subset))
    "{p1,p2} induces {e1},{e2,e3}"
    (sorted_subsets [ s 0 [| 0 |]; s 1 [| 1; 2 |] ])
    (induced [| p1; p2 |]);
  Alcotest.(check (list subset))
    "{p2,p3} induces {e1},{e3},{e4}"
    (sorted_subsets [ s 0 [| 0 |]; s 1 [| 2 |]; s 2 [| 3 |] ])
    (induced [| p2; p3 |]);
  Alcotest.(check (list subset))
    "{p1,p2,p3} induces {e1},{e2,e3},{e4}"
    (sorted_subsets [ s 0 [| 0 |]; s 1 [| 1; 2 |]; s 2 [| 3 |] ])
    (induced [| p1; p2; p3 |])

let test_row_frozen_vs_grow () =
  let m = Toy.case1 () in
  let eff = all_effective m in
  let reg = Eqn.registry (Signatures.build m ~effective:eff) in
  let rz = Eqn.resolver reg in
  (* Frozen lookup on an empty registry fails... *)
  (match Eqn.row_fast rz ~paths:[| p1 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "row should be unrepresentable");
  (* ...growing registers {e1} and {e2}. *)
  (match Eqn.row_grow rz ~paths:[| p1 |] with
  | Some r -> check_int "two vars" 2 (Array.length r.Eqn.vars)
  | None -> Alcotest.fail "row_grow must succeed");
  check_int "registry grew" 2 (Eqn.n_vars reg);
  (* Now the frozen lookup succeeds too. *)
  match Eqn.row_fast rz ~paths:[| p1 |] with
  | Some r -> check_int "same two vars" 2 (Array.length r.Eqn.vars)
  | None -> Alcotest.fail "row must now be representable"

let test_row_no_effective_links () =
  let m = Toy.case1 () in
  let eff = Bitset.create 4 in
  (* nothing effective *)
  let reg = Eqn.registry (Signatures.build m ~effective:eff) in
  match Eqn.row_grow (Eqn.resolver reg) ~paths:[| p1 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "no effective links => no row"

let test_register_single_path_vars () =
  let m = Toy.case1 () in
  let eff = all_effective m in
  let reg = Eqn.registry (Signatures.build m ~effective:eff) in
  Eqn.register_single_path_masks reg;
  (* p1: {e1},{e2}; p2: {e1},{e3}; p3: {e3},{e4} -> 4 distinct vars, in
     the bit-set path's order. *)
  check_int "4 single-path vars" 4 (Eqn.n_vars reg);
  let oracle = Bitset_path.registry () in
  check_int "bit-set path: 4 vars" 4
    (Bitset_path.register_single_path_vars m ~effective:eff oracle);
  Alcotest.(check (list subset))
    "same order"
    (Array.to_list (Bitset_path.subsets oracle))
    (List.init 4 (Eqn.subset_of_var reg))

let test_registry_roundtrip () =
  let m = Toy.case1 () in
  let eff = all_effective m in
  Bitset.clear eff e4;
  let reg = Eqn.registry (Signatures.build m ~effective:eff) in
  let s = Subsets.make m ~corr:1 [| e2; e3 |] in
  let v = Eqn.add reg s in
  check_int "stable id" v (Eqn.add reg s);
  check_bool "found" true (Eqn.find reg s = Some v);
  check_bool "roundtrip" true (Subsets.equal s (Eqn.subset_of_var reg v));
  check_bool "other subset absent" true
    (Eqn.find reg (Subsets.make m ~corr:1 [| e2 |]) = None);
  let uneffective = Subsets.make m ~corr:2 [| e4 |] in
  check_bool "non-effective subset absent" true (Eqn.find reg uneffective = None);
  Alcotest.check_raises "non-effective subset refused"
    (Invalid_argument "Eqn.add: a link outside the effective set") (fun () ->
      ignore (Eqn.add reg uneffective));
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Eqn.subset_of_var: unknown variable") (fun () ->
      ignore (Eqn.subset_of_var reg 99))

(* A finished registry answers its readers as before and refuses
   every function that reads the signature table it dropped; so does
   the registry of a selection Algorithm 1 returns. *)
let test_finished_registry () =
  let m = Toy.case1 () in
  let eff = all_effective m in
  let reg = Eqn.registry (Signatures.build m ~effective:eff) in
  Eqn.register_single_path_masks reg;
  let rz = Eqn.resolver reg in
  let s = Subsets.make m ~corr:1 [| e2; e3 |] in
  let v = Eqn.add reg s in
  let mask = Eqn.mask_of_var reg v in
  Eqn.finish reg;
  check_int "variables kept" 5 (Eqn.n_vars reg);
  check_bool "find" true (Eqn.find reg s = Some v);
  check_int "find_mask" v (Eqn.find_mask reg ~corr:1 mask 0);
  check_bool "subset_of_var" true (Subsets.equal s (Eqn.subset_of_var reg v));
  check_bool "an earlier resolver still looks rows up" true
    (Eqn.row_fast rz ~paths:[| p1 |] <> None);
  let refused name f =
    match f () with
    | () -> Alcotest.failf "%s: a finished registry accepted it" name
    | exception Invalid_argument msg ->
        Alcotest.(check string) name (name ^ ": the registry is finished") msg
  in
  refused "Eqn.add" (fun () -> ignore (Eqn.add reg s));
  refused "Eqn.add_mask" (fun () -> ignore (Eqn.add_mask reg ~corr:1 mask 0));
  refused "Eqn.pool" (fun () -> ignore (Eqn.pool reg v));
  refused "Eqn.register_single_path_masks" (fun () ->
      Eqn.register_single_path_masks reg);
  refused "Eqn.resolver" (fun () -> ignore (Eqn.resolver reg));
  refused "Eqn.row_grow" (fun () -> ignore (Eqn.row_grow rz ~paths:[| p2 |]));
  check_int "nothing added" 5 (Eqn.n_vars reg);
  let sel = Tomo.Algorithm1.select m (busy_obs ()) in
  refused "Eqn.add" (fun () ->
      ignore (Eqn.add sel.Tomo.Algorithm1.registry s))

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
          Alcotest.test_case "flip = set the fresh column" `Quick
            test_obs_flip_interval_statuses;
          Alcotest.test_case "flip range checks" `Quick test_obs_flip_rejects;
          Alcotest.test_case "always-good paths" `Quick test_obs_always_good;
          Alcotest.test_case "interval views" `Quick test_obs_interval_views;
          qc prop_all_good_count_recount;
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
          Alcotest.test_case "finished registry" `Quick
            test_finished_registry;
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
