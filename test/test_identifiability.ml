(* Identifiability analysis vs brute force.

   The module under test derives, from routing structure alone, (a)
   ambiguity classes — links sharing a complete path set — and (b)
   per-correlation-set existence/counts of inducible subsets via the
   union-closure of path signatures.  Both have obvious O(2^n) oracles
   on small random topologies: group links by their literal path sets,
   and test [Subsets.inducible] on every combination.  The properties
   here pin the closure to those oracles, and pin the enumeration
   pruner to the exhaustive fan-out it claims to be bit-identical
   to. *)

module Bitset = Tomo_util.Bitset
module Combin = Tomo_util.Combin
module Rng = Tomo_util.Rng
module Model = Tomo.Model
module Observations = Tomo.Observations
module Subsets = Tomo.Subsets
module Identifiability = Tomo.Identifiability

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let random_model rng =
  let n_links = 1 + Rng.int rng 10 in
  let n_corr = 1 + Rng.int rng n_links in
  let assignment = Array.init n_links (fun _ -> Rng.int rng n_corr) in
  let corr_sets =
    Array.init n_corr (fun c ->
        Array.of_list
          (List.filter (fun e -> assignment.(e) = c) (List.init n_links Fun.id)))
    |> Array.to_list
    |> List.filter (fun s -> Array.length s > 0)
    |> Array.of_list
  in
  let n_paths = 1 + Rng.int rng 8 in
  let paths =
    Array.init n_paths (fun _ ->
        let links =
          List.filter (fun _ -> Rng.bool rng ~p:0.4) (List.init n_links Fun.id)
        in
        match links with
        | [] -> [| Rng.int rng n_links |]
        | l -> Array.of_list l)
  in
  Model.make ~n_links ~paths ~corr_sets

let random_effective rng m =
  let eff = Bitset.create m.Model.n_links in
  for e = 0 to m.Model.n_links - 1 do
    if Rng.bool rng ~p:0.7 then Bitset.set eff e
  done;
  eff

(* O(C(n,k)) oracle: does correlation set [c] admit any inducible subset
   of each size, and how many? *)
let brute_counts m ~effective ~corr ~max_size =
  let links = Subsets.effective_corr_set m ~effective corr in
  Array.init max_size (fun i ->
      let k = i + 1 in
      List.length
        (List.filter
           (fun ls ->
             Subsets.inducible m ~effective (Subsets.make m ~corr ls))
           (Combin.combinations links k)))

(* On models this small the union-closure never hits its node budget, so
   the witness is exact: [true] iff an inducible subset of that size
   exists. *)
let prop_witness_matches_oracle =
  QCheck.Test.make ~name:"size witness equals brute-force existence"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Rng.create (31337 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      let max_size = 3 in
      let ok = ref true in
      for c = 0 to Model.n_corr_sets m - 1 do
        let witness =
          Identifiability.inducible_size_witness m ~effective:eff ~corr:c
            ~max_size
        in
        let counts = brute_counts m ~effective:eff ~corr:c ~max_size in
        let n = Array.length (Subsets.effective_corr_set m ~effective:eff c) in
        for k = 1 to min max_size n do
          if witness.(k - 1) <> (counts.(k - 1) > 0) then ok := false
        done
      done;
      !ok)

let prop_analyze_counts_match_oracle =
  QCheck.Test.make ~name:"closure subset counts equal brute force"
    ~count:60 QCheck.small_int (fun seed ->
      let rng = Rng.create (65537 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      let t = Identifiability.analyze m ~effective:eff in
      Array.for_all
        (fun (s : Identifiability.corr_stats) ->
          match s.Identifiability.inducible_by_size with
          | None -> true (* budget-capped: no exact claim made *)
          | Some counts ->
              counts
              = brute_counts m ~effective:eff ~corr:s.Identifiability.corr
                  ~max_size:t.Identifiability.max_size)
        t.Identifiability.corr)

let prop_ambiguity_classes_match_oracle =
  QCheck.Test.make ~name:"ambiguity classes equal path-set grouping"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Rng.create (2063 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      let classes = Identifiability.ambiguity_classes m ~effective:eff in
      (* Oracle: group effective links by their literal path lists. *)
      let groups = Hashtbl.create 16 in
      for e = 0 to m.Model.n_links - 1 do
        if Bitset.get eff e then begin
          let key =
            String.concat ","
              (List.map string_of_int (Bitset.to_list m.Model.link_paths.(e)))
          in
          Hashtbl.replace groups key
            (match Hashtbl.find_opt groups key with
            | Some es -> e :: es
            | None -> [ e ])
        end
      done;
      let expected =
        Hashtbl.fold
          (fun _ es acc ->
            match es with _ :: _ :: _ -> List.rev es :: acc | _ -> acc)
          groups []
        |> List.sort compare
      in
      let actual =
        Array.to_list classes
        |> List.map (fun c -> Array.to_list c.Identifiability.links)
        |> List.sort compare
      in
      actual = expected
      && Array.for_all
           (fun (c : Identifiability.link_class) ->
             c.Identifiability.representative = c.Identifiability.links.(0))
           classes)

(* The documented guarantee of [max_identifiable_size]: below it, every
   pair of inducible subsets has distinct path coverage. *)
let prop_max_identifiable_size_sound =
  QCheck.Test.make ~name:"subsets below max identifiable size distinct"
    ~count:60 QCheck.small_int (fun seed ->
      let rng = Rng.create (7507 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      let t = Identifiability.analyze m ~effective:eff in
      Array.for_all
        (fun (s : Identifiability.corr_stats) ->
          match s.Identifiability.max_identifiable_size with
          | None | Some 0 -> true
          | Some k_max ->
              let links =
                Subsets.effective_corr_set m ~effective:eff
                  s.Identifiability.corr
              in
              let inducible =
                List.concat_map
                  (fun k ->
                    List.filter
                      (fun ls ->
                        Subsets.inducible m ~effective:eff
                          (Subsets.make m ~corr:s.Identifiability.corr ls))
                      (Combin.combinations links k))
                  (List.init k_max (fun i -> i + 1))
              in
              let coverages =
                List.map
                  (fun ls -> Bitset.to_list (Model.paths_of_links m ls))
                  inducible
              in
              List.length (List.sort_uniq compare coverages)
              = List.length coverages)
        t.Identifiability.corr)

(* The pruner's contract: the enumerated subset list and the truncation
   counter are bit-identical with pruning on and off, including under
   tight find caps and visit budgets. *)
let enumerate_counted ~prune m ~effective ~max_size ~limit_per_set =
  Subsets.set_ident_prune prune;
  Fun.protect
    ~finally:(fun () -> Subsets.set_ident_prune true)
    (fun () ->
      Tomo_obs.Metrics.set_enabled true;
      Tomo_obs.Metrics.reset ();
      let subsets = Subsets.enumerate m ~effective ~max_size ~limit_per_set in
      let counter name =
        Tomo_obs.Metrics.counter_value (Tomo_obs.Metrics.counter name)
      in
      let capped = counter "subsets_enumeration_capped" in
      let pruned = counter "ident_pruned_sets" in
      Tomo_obs.Metrics.set_enabled false;
      Tomo_obs.Metrics.reset ();
      (List.map Subsets.key subsets, capped, pruned))

let enumerate_with ~prune m ~effective ~max_size ~limit_per_set =
  let keys, capped, _ =
    enumerate_counted ~prune m ~effective ~max_size ~limit_per_set
  in
  (keys, capped)

let prop_pruned_enumeration_identical =
  QCheck.Test.make ~name:"pruned enumeration bit-identical to exhaustive"
    ~count:100
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, limit_per_set) ->
      let rng = Rng.create (9973 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      enumerate_with ~prune:true m ~effective:eff ~max_size:3 ~limit_per_set
      = enumerate_with ~prune:false m ~effective:eff ~max_size:3
          ~limit_per_set)

(* End-to-end: the full Correlation-complete pipeline over random
   observations must produce bit-identical estimates either way. *)
let prop_pruned_estimates_identical =
  QCheck.Test.make ~name:"pruned pipeline estimates bit-identical"
    ~count:25 QCheck.small_int (fun seed ->
      let rng = Rng.create (524287 * (seed + 1)) in
      let m = random_model rng in
      let t_intervals = 12 in
      let obs = Observations.create ~t_intervals ~n_paths:m.Model.n_paths in
      for i = 0 to t_intervals - 1 do
        let good = Bitset.create m.Model.n_paths in
        for p = 0 to m.Model.n_paths - 1 do
          if Rng.bool rng ~p:0.7 then Bitset.set good p
        done;
        Observations.set_interval_statuses obs ~interval:i ~good
      done;
      let compute prune =
        Subsets.set_ident_prune prune;
        Fun.protect
          ~finally:(fun () -> Subsets.set_ident_prune true)
          (fun () -> fst (Tomo.Correlation_complete.compute m obs))
      in
      let on = compute true and off = compute false in
      let open Tomo.Pc_result in
      Array.for_all2
        (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
        on.marginals off.marginals
      && on.identifiable = off.identifiable
      && on.n_rows = off.n_rows
      && on.n_vars = off.n_vars)

(* The word-size fallbacks.  A correlation set wider than [Sys.int_size]
   links cannot be masked, so [Identifiability.close] falls back to the
   minimum-signature bound and [Eqn.resolver] delegates to [Eqn.row].
   Here 70 links are covered by the 2-link chain paths [i; i+1]: every
   signature has 2 links, so no singleton is inducible and the pruner
   skips size 1. *)
let test_wide_set_fallbacks () =
  let n = 70 in
  check_bool "wider than a word" true (n > Sys.int_size);
  let m =
    Model.make ~n_links:n
      ~paths:(Array.init (n - 1) (fun i -> [| i; i + 1 |]))
      ~corr_sets:[| Array.init n Fun.id |]
  in
  let eff = Identifiability.covered_links m in
  let w =
    Identifiability.inducible_size_witness m ~effective:eff ~corr:0
      ~max_size:3
  in
  check_bool "size 1 proven empty" false w.(0);
  check_bool "size 2 not ruled out" true w.(1);
  List.iter
    (fun limit_per_set ->
      let tag = Printf.sprintf "limit %d" limit_per_set in
      let keys, capped, pruned =
        enumerate_counted ~prune:true m ~effective:eff ~max_size:3
          ~limit_per_set
      in
      let keys', capped', _ =
        enumerate_counted ~prune:false m ~effective:eff ~max_size:3
          ~limit_per_set
      in
      check_bool (tag ^ ": same subsets") true (keys = keys');
      check_int (tag ^ ": same truncation count") capped' capped;
      check_bool (tag ^ ": size 1 pruned") true (pruned > 0))
    [ 1; 5; 500 ];
  (* Register every single-path subset and, for even [i], the 3-link
     subset of the pair [i], [i+1], so pair rows resolve both ways. *)
  let reg = Tomo.Eqn.registry () in
  ignore (Tomo.Eqn.register_single_path_vars m ~effective:eff reg);
  for i = 0 to n - 3 do
    if i mod 2 = 0 then
      ignore (Tomo.Eqn.row_grow m ~effective:eff reg ~paths:[| i; i + 1 |])
  done;
  let rz = Tomo.Eqn.resolver m ~effective:eff reg in
  let same paths =
    Tomo.Eqn.row_fast rz ~paths = Tomo.Eqn.row m ~effective:eff reg ~paths
  in
  for i = 0 to n - 2 do
    check_bool (Printf.sprintf "path %d" i) true (same [| i |])
  done;
  for i = 0 to n - 3 do
    check_bool (Printf.sprintf "pair %d" i) true (same [| i; i + 1 |])
  done;
  check_bool "single path resolves" true
    (Tomo.Eqn.row m ~effective:eff reg ~paths:[| 0 |] <> None);
  check_bool "even pair resolves" true
    (Tomo.Eqn.row m ~effective:eff reg ~paths:[| 0; 1 |] <> None);
  check_bool "odd pair unregistered" true
    (Tomo.Eqn.row m ~effective:eff reg ~paths:[| 1; 2 |] = None)

(* Deterministic spot checks on hand-built topologies. *)

let test_chain_not_identifiable () =
  (* Two links in series on one path: indistinguishable — one class. *)
  let m =
    Model.make ~n_links:2 ~paths:[| [| 0; 1 |] |] ~corr_sets:[| [| 0; 1 |] |]
  in
  let eff = Identifiability.covered_links m in
  let classes = Identifiability.ambiguity_classes m ~effective:eff in
  check_int "one class" 1 (Array.length classes);
  check_int "representative" 0 classes.(0).Identifiability.representative;
  let t = Identifiability.analyze m ~effective:eff in
  check_bool "link 0 ambiguous" true (Identifiability.link_ambiguous t 0);
  check_bool "link 1 ambiguous" true (Identifiability.link_ambiguous t 1);
  (* Only the pair {0,1} is inducible: one signature of size 2. *)
  let w = Identifiability.inducible_size_witness m ~effective:eff ~corr:0 ~max_size:3 in
  check_bool "no singleton inducible" false w.(0);
  check_bool "the pair is inducible" true w.(1)

let test_star_identifiable () =
  (* Three links, each with a private path: Condition 1 holds, every
     subset inducible. *)
  let m =
    Model.make ~n_links:3
      ~paths:[| [| 0 |]; [| 1 |]; [| 2 |] |]
      ~corr_sets:[| [| 0; 1; 2 |] |]
  in
  let eff = Identifiability.covered_links m in
  check_int "no ambiguity classes" 0
    (Array.length (Identifiability.ambiguity_classes m ~effective:eff));
  let t = Identifiability.analyze m ~effective:eff in
  match t.Identifiability.corr.(0).Identifiability.inducible_by_size with
  | Some counts ->
      Alcotest.(check (array int)) "all subsets inducible" [| 3; 3; 1 |] counts
  | None -> Alcotest.fail "closure unexpectedly capped"

let test_uncovered_links_excluded () =
  (* A link with no paths is neither effective nor ambiguous. *)
  let m =
    Model.make ~n_links:3
      ~paths:[| [| 0 |]; [| 0 |] |]
      ~corr_sets:[| [| 0; 1; 2 |] |]
  in
  let eff = Identifiability.covered_links m in
  check_bool "covered" true (Bitset.get eff 0);
  check_bool "uncovered 1" false (Bitset.get eff 1);
  check_bool "uncovered 2" false (Bitset.get eff 2);
  let t = Identifiability.analyze m ~effective:eff in
  check_int "one effective link" 1 t.Identifiability.n_effective;
  check_int "no classes" 0 (Array.length t.Identifiability.classes)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "identifiability"
    [
      ( "oracle",
        [
          qc prop_witness_matches_oracle;
          qc prop_analyze_counts_match_oracle;
          qc prop_ambiguity_classes_match_oracle;
          qc prop_max_identifiable_size_sound;
        ] );
      ( "pruning",
        [
          qc prop_pruned_enumeration_identical;
          qc prop_pruned_estimates_identical;
          Alcotest.test_case "70-link set: word-size fallbacks" `Quick
            test_wide_set_fallbacks;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "chain is one ambiguity class" `Quick
            test_chain_not_identifiable;
          Alcotest.test_case "star satisfies Condition 1" `Quick
            test_star_identifiable;
          Alcotest.test_case "uncovered links excluded" `Quick
            test_uncovered_links_excluded;
        ] );
    ]
