(* Identifiability analysis vs brute force.

   The module under test derives, from routing structure alone, (a)
   ambiguity classes — links sharing a complete path set — and (b)
   per-correlation-set existence/counts of inducible subsets via the
   union-closure of path signatures.  Both have obvious O(2^n) oracles
   on small random topologies: group links by their literal path sets,
   and test every combination with the bit-set oracle's [inducible].
   The properties here pin the closure to those oracles; the fixed cases
   below pin it on a set wider than a word and under a capped node
   budget. *)

module Bitset = Tomo_util.Bitset
module Combin = Tomo_util.Combin
module Rng = Tomo_util.Rng
module Model = Tomo.Model
module Subsets = Tomo.Subsets
module Identifiability = Tomo.Identifiability
module Signatures = Tomo.Signatures
module Bitset_path = Tomo_oracles.Bitset_path

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

(* Correlation set [c]'s effective links, ascending. *)
let effective_corr_set m ~effective c =
  Array.of_list
    (List.filter (Bitset.get effective)
       (Array.to_list (Model.corr_set_links m c)))

(* O(C(n,k)) oracle: does correlation set [c] admit any inducible subset
   of each size, and how many? *)
let brute_counts m ~effective ~corr ~max_size =
  let links = effective_corr_set m ~effective corr in
  Array.init max_size (fun i ->
      let k = i + 1 in
      List.length
        (List.filter
           (fun ls ->
             Bitset_path.inducible m ~effective (Subsets.make m ~corr ls))
           (Combin.combinations links k)))

(* On models this small the union-closure never hits its node budget, so
   the size witness behind [pruned_sizes] is exact: a size counts as
   prunable iff no subset of that size is inducible. *)
let prop_witness_matches_oracle =
  QCheck.Test.make ~name:"size witness equals brute-force existence"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Rng.create (31337 * (seed + 1)) in
      let m = random_model rng in
      let eff = random_effective rng m in
      let max_size = 3 in
      let t = Identifiability.analyze ~max_size m ~effective:eff in
      Array.for_all
        (fun (s : Identifiability.corr_stats) ->
          let c = s.Identifiability.corr in
          let counts = brute_counts m ~effective:eff ~corr:c ~max_size in
          let n = Array.length (effective_corr_set m ~effective:eff c) in
          let empty = ref 0 in
          for k = 1 to min max_size n do
            if counts.(k - 1) = 0 then incr empty
          done;
          s.Identifiability.pruned_sizes = !empty)
        t.Identifiability.corr)

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
                effective_corr_set m ~effective:eff s.Identifiability.corr
              in
              let inducible =
                List.concat_map
                  (fun k ->
                    List.filter
                      (fun ls ->
                        Bitset_path.inducible m ~effective:eff
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

(* Largest [k <= max_size] (and at most the set's size) such that the
   inducible subsets of size [<= k] have pairwise-distinct path
   coverage, by brute force. *)
let brute_max_identifiable m ~effective ~corr ~max_size =
  let links = effective_corr_set m ~effective corr in
  let distinct k =
    let coverages =
      List.concat_map
        (fun size ->
          List.filter_map
            (fun ls ->
              if Bitset_path.inducible m ~effective (Subsets.make m ~corr ls)
              then Some (Bitset.to_list (Model.paths_of_links m ls))
              else None)
            (Combin.combinations links size))
        (List.init k (fun i -> i + 1))
    in
    List.length (List.sort_uniq compare coverages) = List.length coverages
  in
  let k = ref 0 in
  while !k < min max_size (Array.length links) && distinct (!k + 1) do
    incr k
  done;
  !k

(* A correlation set wider than a word: 70 links covered by the 2-link
   chain paths [i; i+1], so masks take two words.  Every signature has 2
   links: no singleton is inducible, size 1 is the one prunable slot,
   and the closure counts the 69 signatures and the 68 unions of
   neighbours exactly, as brute force does.  The enumeration lists no
   singleton, and the table's rows equal the bit-set path's. *)
let test_wide_set_exact () =
  let n = 70 and max_size = 3 in
  let m =
    Model.make ~n_links:n
      ~paths:(Array.init (n - 1) (fun i -> [| i; i + 1 |]))
      ~corr_sets:[| Array.init n Fun.id |]
  in
  let eff = Identifiability.covered_links m in
  let table = Signatures.build m ~effective:eff in
  check_int "two-word masks" 2 table.Signatures.words;
  let t = Identifiability.analyze ~max_size m ~effective:eff in
  let s = t.Identifiability.corr.(0) in
  check_int "smallest signature" 2 s.Identifiability.min_signature;
  check_int "distinct signatures" 69 s.Identifiability.n_signatures;
  check_int "size 1 proven empty, sizes 2 and 3 not" 1
    s.Identifiability.pruned_sizes;
  Alcotest.(check (option (array int)))
    "exact counts" (Some [| 0; 69; 68 |])
    s.Identifiability.inducible_by_size;
  Alcotest.(check (option (array int)))
    "counts ≡ brute force"
    (Some (brute_counts m ~effective:eff ~corr:0 ~max_size))
    s.Identifiability.inducible_by_size;
  Alcotest.(check (option int))
    "identifiable-size bound" (Some 2) s.Identifiability.max_identifiable_size;
  Alcotest.(check (option int))
    "identifiable-size bound ≡ brute force"
    (Some (brute_max_identifiable m ~effective:eff ~corr:0 ~max_size))
    s.Identifiability.max_identifiable_size;
  List.iter
    (fun limit_per_set ->
      let sizes = ref [] in
      Subsets.enumerate table ~max_size ~limit_per_set (fun _ mask ->
          sizes := Signatures.popcount mask 0 2 :: !sizes);
      check_bool
        (Printf.sprintf "limit %d: no singleton listed" limit_per_set)
        true
        (List.for_all (fun k -> k >= 2) !sizes))
    [ 1; 5; 500 ];
  (* Register every single-path subset and, for even [i], the 3-link
     subset of the pair [i], [i+1], both ways, so pair rows resolve in
     both registries for even [i] and in neither for odd [i]. *)
  let reg = Tomo.Eqn.registry table and oracle = Bitset_path.registry () in
  Tomo.Eqn.register_single_path_masks reg;
  ignore (Bitset_path.register_single_path_vars m ~effective:eff oracle);
  let rz = Tomo.Eqn.resolver reg in
  for i = 0 to n - 3 do
    if i mod 2 = 0 then begin
      ignore (Tomo.Eqn.row_grow rz ~paths:[| i; i + 1 |]);
      ignore (Bitset_path.row_grow m ~effective:eff oracle ~paths:[| i; i + 1 |])
    end
  done;
  let same paths =
    Tomo.Eqn.row_fast rz ~paths = Bitset_path.row m ~effective:eff oracle ~paths
  in
  for i = 0 to n - 2 do
    check_bool (Printf.sprintf "path %d" i) true (same [| i |])
  done;
  for i = 0 to n - 3 do
    check_bool (Printf.sprintf "pair %d" i) true (same [| i; i + 1 |])
  done;
  check_bool "single path resolves" true
    (Tomo.Eqn.row_fast rz ~paths:[| 0 |] <> None);
  check_bool "even pair resolves" true
    (Tomo.Eqn.row_fast rz ~paths:[| 0; 1 |] <> None);
  check_bool "odd pair unregistered" true
    (Tomo.Eqn.row_fast rz ~paths:[| 1; 2 |] = None)

(* The node-budget fallback, which the random models above are too small
   to reach.  Ten links in one correlation set, covered by the chain
   paths [i; i+1] plus a private path on every third link: thirteen
   signatures of sizes 1 and 2, whose closure up to size 4 holds 123
   subsets.  A budget of 6 caps it while the signatures are still being
   visited, before any subset of size 3 or 4 is reached. *)
let test_budget_capped_closure () =
  let n = 10 and max_size = 4 and budget = 6 in
  let m =
    Model.make ~n_links:n
      ~paths:
        (Array.append
           (Array.init (n - 1) (fun i -> [| i; i + 1 |]))
           [| [| 0 |]; [| 3 |]; [| 6 |]; [| 9 |] |])
      ~corr_sets:[| Array.init n Fun.id |]
  in
  let eff = Identifiability.covered_links m in
  let full = Identifiability.analyze ~max_size m ~effective:eff in
  let capped = Identifiability.analyze ~max_size ~budget m ~effective:eff in
  let s0 = full.Identifiability.corr.(0)
  and s = capped.Identifiability.corr.(0) in
  (match s0.Identifiability.inducible_by_size with
  | Some counts ->
      check_bool "uncapped closure exceeds the budget" true
        (Array.fold_left ( + ) 0 counts > budget)
  | None -> Alcotest.fail "default budget capped the closure");
  check_bool "uncapped bound is reported" true
    (s0.Identifiability.max_identifiable_size <> None);
  check_bool "capped: no subset counts" true
    (s.Identifiability.inducible_by_size = None);
  check_bool "capped: no identifiable-size bound" true
    (s.Identifiability.max_identifiable_size = None);
  check_int "capped: nothing claimed prunable" 0
    s.Identifiability.pruned_sizes

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
  let s = t.Identifiability.corr.(0) in
  Alcotest.(check (option (array int)))
    "only the pair inducible" (Some [| 0; 1; 0 |])
    s.Identifiability.inducible_by_size;
  check_int "size 1 prunable" 1 s.Identifiability.pruned_sizes

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
      ( "closure",
        [
          Alcotest.test_case "70-link set: exact counts" `Quick
            test_wide_set_exact;
          Alcotest.test_case "budget-capped closure falls back soundly"
            `Quick test_budget_capped_closure;
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
