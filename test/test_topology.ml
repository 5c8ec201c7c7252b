(* Tests for graphs, the two-level overlay builder, and the Brite/Sparse
   topology generators. *)

module Graph = Tomo_topology.Graph
module Graph_ref = Tomo_oracles.Graph_ref
module Workload = Tomo_experiments.Workload
module Overlay = Tomo_topology.Overlay
module Gen_common = Tomo_topology.Gen_common
module Brite = Tomo_topology.Brite
module Sparse_topo = Tomo_topology.Sparse_topo
module Rng = Tomo_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let test_graph_basic () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  check_int "edges" 2 (Graph.n_edges g);
  check_bool "has 0-1" true (Graph.has_edge g 0 1);
  check_bool "symmetric" true (Graph.has_edge g 1 0);
  check_bool "no 0-2" false (Graph.has_edge g 0 2);
  check_int "degree 1" 2 (Graph.degree g 1);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      Graph.add_edge g 2 2);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_edge: duplicate edge") (fun () ->
      Graph.add_edge g 0 1)

let test_graph_shortest_path () =
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  Graph.add_edge g 0 4;
  Graph.add_edge g 4 3;
  (match Graph.shortest_path g ~src:0 ~dst:3 with
  | Some p -> check_int "hop count" 3 (List.length p)
  | None -> Alcotest.fail "path expected");
  match Graph.shortest_path g ~src:0 ~dst:0 with
  | Some [ 0 ] -> ()
  | _ -> Alcotest.fail "trivial path expected"

let test_graph_disconnected () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  check_bool "disconnected" false (Graph.connected g);
  (match Graph.shortest_path g ~src:0 ~dst:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "no path expected");
  Graph.add_edge g 1 2;
  check_bool "connected" true (Graph.connected g)

let prop_shortest_path_valid =
  QCheck.Test.make ~name:"BFS returns a valid minimal path on random graphs"
    ~count:60 (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 15 in
      let g = Graph.create n in
      (* Random connected-ish graph: spanning chain + random chords. *)
      for u = 1 to n - 1 do
        Graph.add_edge g u (Rng.int rng u)
      done;
      for _ = 1 to n / 2 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v && not (Graph.has_edge g u v) then Graph.add_edge g u v
      done;
      let src = Rng.int rng n and dst = Rng.int rng n in
      match Graph.shortest_path ~rng g ~src ~dst with
      | None -> false (* connected by construction *)
      | Some nodes ->
          let rec consecutive = function
            | x :: (y :: _ as rest) ->
                Graph.has_edge g x y && consecutive rest
            | _ -> true
          in
          List.hd nodes = src
          && List.hd (List.rev nodes) = dst
          && consecutive nodes)

(* The same [add_edge] sequence into the graph and its list-based
   reference, in rounds, with searches between them: every query must
   agree, and [shortest_path ~rng] must make the same draws, which one
   further draw from each generator shows.  Searches on a grown graph
   reuse the search arrays of earlier ones. *)
let prop_graph_matches_reference =
  QCheck.Test.make ~name:"graph equals its list-based reference, draws included"
    ~count:200 (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 24 in
      let g = Graph.create n and r = Graph_ref.create n in
      let search_seed = Rng.int rng 1_000_000 in
      let rng_g = Rng.create search_seed and rng_r = Rng.create search_seed in
      let nodes = List.init n Fun.id in
      let same_queries () =
        Graph.edges g = Graph_ref.edges r
        && Graph.n_edges g = Graph_ref.n_edges r
        && Graph.connected g = Graph_ref.connected r
        && List.for_all
             (fun u ->
               Graph.neighbors g u = Graph_ref.neighbors r u
               && Graph.degree g u = Graph_ref.degree r u
               && List.for_all
                    (fun v -> Graph.has_edge g u v = Graph_ref.has_edge r u v)
                    nodes)
             nodes
      in
      let same_searches () =
        List.for_all
          (fun _ ->
            let src = Rng.int rng n and dst = Rng.int rng n in
            Graph.shortest_path ~rng:rng_g g ~src ~dst
            = Graph_ref.shortest_path ~rng:rng_r r ~src ~dst
            && Graph.shortest_path g ~src ~dst
               = Graph_ref.shortest_path r ~src ~dst)
          [ 1; 2; 3; 4; 5 ]
        && Rng.int rng_g 1_000_000 = Rng.int rng_r 1_000_000
      in
      List.for_all
        (fun _ ->
          for _ = 1 to Rng.int rng (2 * n) do
            let u = Rng.int rng n and v = Rng.int rng n in
            if u <> v && not (Graph_ref.has_edge r u v) then begin
              Graph.add_edge g u v;
              Graph_ref.add_edge r u v
            end
          done;
          same_queries () && same_searches ())
        [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Overlay builder                                                     *)
(* ------------------------------------------------------------------ *)

let toy_builder () =
  let b = Overlay.Builder.create ~n_ases:3 ~source_as:0 in
  let f0 = Overlay.Builder.factor b ~owner:1 ~key:"f0" in
  let f1 = Overlay.Builder.factor b ~owner:1 ~key:"f1" in
  let l0 =
    Overlay.Builder.link b ~owner:1 ~key:"a" ~kind:Overlay.Inter
      ~factors:(fun () -> [| f0 |])
  in
  let l1 =
    Overlay.Builder.link b ~owner:1 ~key:"b" ~kind:Overlay.Intra
      ~factors:(fun () -> [| f0; f1 |])
  in
  (b, l0, l1)

let test_builder_dedup () =
  let b, l0, _ = toy_builder () in
  let l0' =
    Overlay.Builder.link b ~owner:1 ~key:"a" ~kind:Overlay.Inter
      ~factors:(fun () -> failwith "must not re-create")
  in
  check_int "link get-or-create" l0 l0';
  let f0 = Overlay.Builder.factor b ~owner:1 ~key:"f0" in
  let f0' = Overlay.Builder.factor b ~owner:1 ~key:"f0" in
  check_int "factor get-or-create" f0 f0'

let test_builder_foreign_factor_rejected () =
  let b, _, _ = toy_builder () in
  let foreign = Overlay.Builder.factor b ~owner:2 ~key:"g" in
  Alcotest.check_raises "cross-AS factor"
    (Invalid_argument "Builder.link: factor owned by a different AS")
    (fun () ->
      ignore
        (Overlay.Builder.link b ~owner:1 ~key:"evil" ~kind:Overlay.Inter
           ~factors:(fun () -> [| foreign |])))

let test_builder_path_dedup () =
  let b, l0, l1 = toy_builder () in
  (match Overlay.Builder.add_path b [| l0; l1 |] with
  | Some 0 -> ()
  | _ -> Alcotest.fail "first path gets id 0");
  (match Overlay.Builder.add_path b [| l0; l1 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "duplicate path must be rejected");
  match Overlay.Builder.add_path b [| l1; l0 |] with
  | Some 1 -> ()
  | _ -> Alcotest.fail "distinct order is a distinct path"

let test_builder_prunes_unused () =
  let b, l0, l1 = toy_builder () in
  let _unused =
    Overlay.Builder.link b ~owner:2 ~key:"dead" ~kind:Overlay.Inter
      ~factors:(fun () -> [| Overlay.Builder.factor b ~owner:2 ~key:"df" |])
  in
  ignore (Overlay.Builder.add_path b [| l0; l1 |]);
  let t = Overlay.Builder.finalize b in
  check_int "only used links survive" 2 (Overlay.n_links t);
  check_int "only used factors survive" 2 t.Overlay.n_factors;
  Overlay.validate t

let test_correlation_sets_partition () =
  let b, l0, l1 = toy_builder () in
  ignore (Overlay.Builder.add_path b [| l0; l1 |]);
  let t = Overlay.Builder.finalize b in
  let cs = Overlay.correlation_sets t in
  check_int "one correlation set (single owning AS)" 1 (Array.length cs);
  check_int "it holds both links" 2 (Array.length cs.(0))

let test_links_sharing_factor () =
  let b, l0, l1 = toy_builder () in
  ignore (Overlay.Builder.add_path b [| l0; l1 |]);
  let t = Overlay.Builder.finalize b in
  let sharing = Overlay.links_sharing_factor t in
  (* f0 backs both links, f1 only one. *)
  let counts = Array.map Array.length sharing in
  Array.sort compare counts;
  Alcotest.(check (array int)) "factor sharing" [| 1; 2 |] counts

(* Two ASes, one factor each, one link per AS and one path over both:
   the smallest overlay on which every check of [validate] can fail. *)
let valid_overlay : Overlay.t =
  {
    Overlay.n_ases = 2;
    source_as = 0;
    n_factors = 2;
    factor_owner = [| 0; 1 |];
    links =
      [|
        { Overlay.id = 0; owner_as = 0; kind = Intra; factors = [| 0 |] };
        { Overlay.id = 1; owner_as = 1; kind = Inter; factors = [| 1 |] };
      |];
    paths = [| { Overlay.id = 0; links = [| 0; 1 |] } |];
  }

(* One hand-built record per rejection of [Overlay.validate], each
   breaking exactly one invariant of [valid_overlay]. *)
let test_validate_rejections () =
  Overlay.validate valid_overlay;
  let with_link i f =
    let links = Array.copy valid_overlay.Overlay.links in
    links.(i) <- f links.(i);
    { valid_overlay with Overlay.links }
  in
  let with_path_links links =
    { valid_overlay with Overlay.paths = [| { Overlay.id = 0; links } |] }
  in
  List.iter
    (fun (msg, t) ->
      Alcotest.check_raises msg (Failure msg) (fun () -> Overlay.validate t))
    [
      ("link 1 has id 0", with_link 1 (fun l -> { l with Overlay.id = 0 }));
      ( "link 1 owned by unknown AS 2",
        with_link 1 (fun l -> { l with Overlay.owner_as = 2 }) );
      ( "link 0 has no factors",
        with_link 0 (fun l -> { l with Overlay.factors = [||] }) );
      ( "link 0 references unknown factor 2",
        with_link 0 (fun l -> { l with Overlay.factors = [| 2 |] }) );
      ( "link 0 (AS 0) uses factor 1 of AS 1",
        with_link 0 (fun l -> { l with Overlay.factors = [| 1 |] }) );
      ( "path 0 has id 1",
        {
          valid_overlay with
          Overlay.paths = [| { Overlay.id = 1; links = [| 0; 1 |] } |];
        } );
      ("path 0 is empty", with_path_links [||]);
      ("path 0 uses unknown link 2", with_path_links [| 0; 2 |]);
      ("path 0 traverses link 0 twice (loop)", with_path_links [| 0; 1; 0 |]);
    ]

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let small_brite =
  {
    Brite.default with
    Brite.n_ases = 40;
    n_paths = 120;
    n_vantages = 2;
  }

let small_sparse =
  {
    Sparse_topo.default with
    Sparse_topo.n_ases = 120;
    n_paths = 120;
    n_vantages = 2;
  }

let test_brite_valid () =
  let t = Brite.generate ~params:small_brite ~seed:7 () in
  Overlay.validate t;
  check_bool "paths collected" true (Overlay.n_paths t >= 100);
  check_bool "links exist" true (Overlay.n_links t > 50)

let test_brite_deterministic () =
  let t1 = Brite.generate ~params:small_brite ~seed:3 () in
  let t2 = Brite.generate ~params:small_brite ~seed:3 () in
  check_int "same links" (Overlay.n_links t1) (Overlay.n_links t2);
  check_int "same paths" (Overlay.n_paths t1) (Overlay.n_paths t2);
  let t3 = Brite.generate ~params:small_brite ~seed:4 () in
  check_bool "different seed differs" true
    (Overlay.n_links t1 <> Overlay.n_links t3
    || t1.Overlay.paths <> t3.Overlay.paths)

let test_sparse_valid () =
  let t = Sparse_topo.generate ~params:small_sparse ~seed:7 () in
  Overlay.validate t;
  check_bool "paths collected" true (Overlay.n_paths t >= 100)

let coverage_counts (t : Overlay.t) =
  let cover = Array.make (Overlay.n_links t) 0 in
  Array.iter
    (fun (p : Overlay.path) ->
      Array.iter (fun l -> cover.(l) <- cover.(l) + 1) p.links)
    t.Overlay.paths;
  cover

let test_sparse_is_sparser_than_brite () =
  (* The defining contrast of the paper's §3.2: in the Sparse topology far
     fewer links are traversed by multiple paths. At this fixture size a
     single draw is noisy (any one seed can land either way), so compare
     the fraction of multi-covered links averaged over several seeds at
     equal path budget. *)
  let multi_frac t =
    let cover = coverage_counts t in
    let multi =
      Array.fold_left (fun a c -> if c >= 2 then a + 1 else a) 0 cover
    in
    float_of_int multi /. float_of_int (Array.length cover)
  in
  let seeds = [ 3; 5; 7; 11; 13 ] in
  let mean f =
    List.fold_left (fun a s -> a +. f s) 0.0 seeds
    /. float_of_int (List.length seeds)
  in
  let brite s = multi_frac (Brite.generate ~params:small_brite ~seed:s ()) in
  let sparse s =
    multi_frac (Sparse_topo.generate ~params:small_sparse ~seed:s ())
  in
  check_bool "sparse has lower multi-coverage" true
    (mean sparse < mean brite)

let test_paper_scale_defaults () =
  (* §3.2: "a representative Sparse topology of about 2000 links and a
     representative Brite topology of about 1000 links, each of them with
     1500 paths". Generous tolerances: the generators are random. *)
  let tb = Brite.generate ~seed:1 () in
  let ts = Sparse_topo.generate ~seed:1 () in
  check_bool "brite ~1000 links" true
    (Overlay.n_links tb > 700 && Overlay.n_links tb < 1400);
  check_bool "sparse ~2000 links" true
    (Overlay.n_links ts > 1500 && Overlay.n_links ts < 2600);
  check_int "brite 1500 paths" 1500 (Overlay.n_paths tb);
  check_int "sparse 1500 paths" 1500 (Overlay.n_paths ts)

let test_intra_links_share_factors () =
  (* Correlations must exist: some factor backs >= 2 links. *)
  let t = Brite.generate ~params:small_brite ~seed:5 () in
  let sharing = Overlay.links_sharing_factor t in
  let shared =
    Array.fold_left (fun a ls -> if Array.length ls >= 2 then a + 1 else a) 0
      sharing
  in
  check_bool "some shared factors" true (shared > 0)

let prop_generated_overlays_valid =
  QCheck.Test.make ~name:"generated overlays satisfy invariants" ~count:12
    (QCheck.int_range 0 1_000) (fun seed ->
      let tb =
        Brite.generate
          ~params:{ small_brite with Brite.n_paths = 60 }
          ~seed ()
      in
      let ts =
        Sparse_topo.generate
          ~params:{ small_sparse with Sparse_topo.n_paths = 60 }
          ~seed ()
      in
      Overlay.validate tb;
      Overlay.validate ts;
      true)

let prop_internet_connected =
  QCheck.Test.make ~name:"generated internets are connected" ~count:20
    (QCheck.int_range 0 1_000) (fun seed ->
      let rng = Rng.create seed in
      let inet =
        Gen_common.generate_internet rng ~n_ases:30 ~attach:2
          ~extra_edge_frac:0.1 ~routers_lo:2 ~routers_hi:5
      in
      Graph.connected inet.Gen_common.as_graph
      && Array.for_all Graph.connected inet.Gen_common.internals)

(* MD5 of each overlay's [Marshal] bytes (with [No_sharing]) as the
   generator made them over list-based graphs, string link keys and
   decimal path signatures: the array-based generator must reproduce
   every overlay byte for byte, ids and draws included. *)
let recorded_overlays =
  Workload.
    [
      (Small, Brite, 1, "6c03cc4a854c6a9d5ed38ed9e64bef7f");
      (Small, Brite, 2, "84d02feb295d867c99df720c24346284");
      (Small, Brite, 3, "3683f61fcf442debe562595961a9ca8c");
      (Small, Brite, 4, "202b370095e90e192ac06aed23912322");
      (Small, Brite, 5, "060b152923c32128e4e0115318ea1b0e");
      (Small, Sparse, 1, "bfe49a2dcdd81cfc993fb1f118f27315");
      (Small, Sparse, 2, "4815fad78b6fb8a482d6a538573e2f6b");
      (Small, Sparse, 3, "43123ead62c687a7c2eb4e778380ff9b");
      (Small, Sparse, 4, "0d9764e3e25c814b6ad585e82dffa5f0");
      (Small, Sparse, 5, "6dc5560f8fe3603cc646349b26a3807a");
      (Medium, Brite, 1, "11edb44410a472ad36bc8e0826b18c5f");
      (Medium, Brite, 2, "37c859022348e3f03bf1a7fc3a04345e");
      (Medium, Brite, 3, "a281226c4980aff553659e0a47331e15");
      (Medium, Brite, 4, "201d5a194ab56f407e0871d636ca9ecf");
      (Medium, Brite, 5, "4a19f29f5a8b2e9d03cd81a5afe75648");
      (Medium, Sparse, 1, "c4fa15c27e97beb9d355710d46833677");
      (Medium, Sparse, 2, "276d4e1086799306f513929480997001");
      (Medium, Sparse, 3, "8fe81c52337e4d10cddef09c85ee4380");
      (Medium, Sparse, 4, "b15cb630598a027eb6598babe4ff0f3b");
      (Medium, Sparse, 5, "e9336236d8ec7e3e929a2e146a056645");
      (Paper, Brite, 7, "d571ef069afcc60fe7c7f660f92677da");
      (Paper, Sparse, 7, "2e30e21c06b38dda3dca278d0e560d8d");
    ]

let test_recorded_overlays () =
  List.iter
    (fun (scale, topology, seed, digest) ->
      let ov =
        Workload.generate_overlay
          (Workload.spec ~scale ~seed topology Tomo_netsim.Scenario.Random)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s %s seed %d" (Workload.scale_to_string scale)
           (Workload.topology_to_string topology) seed)
        digest
        (Digest.to_hex
           (Digest.string (Marshal.to_string ov [ Marshal.No_sharing ]))))
    recorded_overlays

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basic;
          Alcotest.test_case "shortest path" `Quick test_graph_shortest_path;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
          qc prop_shortest_path_valid;
          qc prop_graph_matches_reference;
        ] );
      ( "builder",
        [
          Alcotest.test_case "link/factor dedup" `Quick test_builder_dedup;
          Alcotest.test_case "cross-AS factors rejected" `Quick
            test_builder_foreign_factor_rejected;
          Alcotest.test_case "path dedup" `Quick test_builder_path_dedup;
          Alcotest.test_case "pruning" `Quick test_builder_prunes_unused;
          Alcotest.test_case "correlation sets" `Quick
            test_correlation_sets_partition;
          Alcotest.test_case "factor sharing map" `Quick
            test_links_sharing_factor;
          Alcotest.test_case "validate rejections" `Quick
            test_validate_rejections;
        ] );
      ( "generators",
        [
          Alcotest.test_case "brite valid" `Quick test_brite_valid;
          Alcotest.test_case "brite deterministic" `Quick
            test_brite_deterministic;
          Alcotest.test_case "sparse valid" `Quick test_sparse_valid;
          Alcotest.test_case "sparse sparser than brite" `Quick
            test_sparse_is_sparser_than_brite;
          Alcotest.test_case "paper-scale defaults" `Slow
            test_paper_scale_defaults;
          Alcotest.test_case "intra links share factors" `Quick
            test_intra_links_share_factors;
          qc prop_generated_overlays_valid;
          qc prop_internet_connected;
          Alcotest.test_case "recorded overlays" `Quick test_recorded_overlays;
        ] );
    ]
