(* Benchmark harness.

     dune exec bench/main.exe                 -- everything
     TOMO_BENCH_SCALE=small dune exec bench/main.exe
     TOMO_BENCH_FIGURES=0  dune exec bench/main.exe  -- skip figures
     TOMO_BENCH_PERF=0     dune exec bench/main.exe  -- skip Bechamel

   Two parts:

   1. Reproduction pass — regenerates every table and figure of the
      paper's evaluation (Fig. 3a/3b, Fig. 4a–d, Table 2) at the chosen
      scale and prints the same rows/series the paper reports.

   2. Bechamel micro-benchmarks — one [Test.make] per table/figure
      workload (the per-interval inference kernels behind Fig. 3, the
      probability-computation solves behind Fig. 4) plus the substrate
      kernels (topology generation, simulation, estimator, and the
      Algorithm-2 incremental null-space update vs a from-scratch
      recomputation — the ablation for the paper's design choice). *)

open Bechamel
open Toolkit
module W = Tomo_experiments.Workload
module Fig3 = Tomo_experiments.Fig3
module Fig4 = Tomo_experiments.Fig4
module Render = Tomo_experiments.Render
module Scenario = Tomo_netsim.Scenario
module Run = Tomo_netsim.Run
module Pool = Tomo_par.Pool
module Bitset = Tomo_util.Bitset
module Matrix = Tomo_linalg.Matrix
module Gauss = Tomo_linalg.Gauss
module Sparse = Tomo_linalg.Sparse
module Sparse_gauss = Tomo_linalg.Sparse_gauss
module Nullspace = Tomo_linalg.Nullspace
module Rng = Tomo_util.Rng

let ppf = Format.std_formatter

let scale =
  match Sys.getenv_opt "TOMO_BENCH_SCALE" with
  | Some s -> (
      match W.scale_of_string s with
      | Ok v -> v
      | Error e -> failwith e)
  | None -> W.Medium

let seed =
  match Sys.getenv_opt "TOMO_BENCH_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> v
      | None ->
          failwith
            (Printf.sprintf "TOMO_BENCH_SEED: expected an integer, got %S" s))
  | None -> 1

let enabled name =
  match Sys.getenv_opt name with Some "0" -> false | _ -> true

(* ------------------------------------------------------------------ *)
(* Part 1: figure reproduction                                         *)
(* ------------------------------------------------------------------ *)

let reproduction_pass () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf
    "Reproduction pass (scale=%s, seed=%d) — every table and figure@."
    (W.scale_to_string scale) seed;
  Format.fprintf ppf
    "==================================================================@.";
  let t0 = Unix.gettimeofday () in
  Render.fig3 ppf (Fig3.run ~scale ~seed);
  Render.fig4_mae ppf
    ~title:
      "Figure 4(a): mean absolute error of link congestion probability \
       (Brite)"
    (Fig4.run_mae ~topology:W.Brite ~scale ~seed);
  Render.fig4_mae ppf
    ~title:
      "Figure 4(b): mean absolute error of link congestion probability \
       (Sparse)"
    (Fig4.run_mae ~topology:W.Sparse ~scale ~seed);
  Render.fig4_cdf ppf (Fig4.run_cdf ~scale ~seed ~steps:10);
  Render.fig4_subsets ppf (Fig4.run_subsets ~scale ~seed);
  Render.table2 ppf;
  Format.fprintf ppf "@.(reproduction pass took %.1f s)@.@."
    (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

(* Shared fixtures, small enough that each benched call is sub-second. *)
let fixture_spec = W.spec ~scale:W.Small ~seed:2 W.Brite Scenario.Random

let fixture = lazy (W.prepare fixture_spec)

let fixture_corr =
  lazy (W.prepare (W.spec ~scale:W.Small ~seed:2 W.Brite Scenario.No_independence))

let interval_inputs w =
  let obs = w.W.obs in
  (Tomo.Observations.congested_paths_at obs ~interval:0,
   Tomo.Observations.good_paths_at obs ~interval:0)

(* Paper-scale incidence fixture for the sparse-kernel benchmarks: ~400
   correlation-subset variables, 520 equations, each touching a short
   block of consecutive variables (the shape Algorithm 1's selections
   produce once subsets are numbered in discovery order).  Density ≈ 2%.
   The dense copy feeds the dense-kernel rows. *)
let paper_incidence =
  lazy
    (let nvars = 400 and nrows = 520 in
     let rng = Rng.create 11 in
     let idxs =
       Array.init nrows (fun i ->
           let base = i * 7 mod (nvars - 8) in
           let cols = ref [] in
           for k = 7 downto 0 do
             if k = 0 || Rng.bool rng ~p:0.75 then cols := (base + k) :: !cols
           done;
           Array.of_list !cols)
     in
     let sp = Sparse.of_incidence ~rows:nrows ~cols:nvars idxs in
     (sp, Sparse.to_matrix sp, idxs))

(* The guarantee that lets incidence rows eliminate on the sparse
   kernel, checked on the bench workload every run (CI greps for the OK
   line): [Sparse_gauss.rref] must be bit-identical to the dense
   [Gauss.rref] — same rank, same pivot columns, every entry of the
   reduced matrix equal. *)
let check_sparse_parity () =
  let sparse, dense, _ = Lazy.force paper_incidence in
  let d = Gauss.rref dense in
  let s = Sparse_gauss.rref sparse in
  let entries_equal =
    let dr = d.Gauss.reduced and sr = s.Sparse_gauss.reduced in
    Matrix.rows dr = Sparse.rows sr
    && Matrix.cols dr = Sparse.cols sr
    &&
    let ok = ref true in
    for i = 0 to Matrix.rows dr - 1 do
      for j = 0 to Matrix.cols dr - 1 do
        if Matrix.get dr i j <> Sparse.get sr i j then ok := false
      done
    done;
    !ok
  in
  if
    d.Gauss.rank = s.Sparse_gauss.rank
    && d.Gauss.pivot_cols = s.Sparse_gauss.pivot_cols
    && entries_equal
  then Format.fprintf ppf "sparse rref parity: OK@."
  else
    failwith
      (Printf.sprintf
         "sparse rref parity: FAILED (dense rank %d, sparse rank %d, \
          entries %s)"
         d.Gauss.rank s.Sparse_gauss.rank
         (if entries_equal then "equal" else "diverged"))

(* ------------------------------------------------------------------ *)
(* Parallel interval simulation: bit-equality guarantee + wall-clock   *)
(* ------------------------------------------------------------------ *)

(* [Run.run] fans the interval loop over the domain pool; the contract
   (lib/netsim/run.mli) is that the result is bit-identical whatever the
   worker count.  Checked here on every bench run with probe-based
   measurement so both the state and loss RNG streams are exercised (CI
   greps for the OK line). *)
let run_fingerprint (r : Run.result) =
  ( Array.map Bitset.to_list r.Run.link_congested,
    Array.map Bitset.to_list r.Run.path_good,
    List.map (fun (e : Run.epoch) -> (e.Run.length, e.Run.probs)) r.Run.epochs
  )

let simulate ~overlay ~t ~seed =
  let rng = Rng.create seed in
  let scenario =
    Scenario.make overlay ~kind:Scenario.Random ~frac:0.1
      ~rng:(Rng.split rng ~label:"scenario")
  in
  Run.run ~scenario
    ~dynamics:(Run.Redraw_every (max 2 (t / 200)))
    ~measurement:(Run.Probes { per_path = 20; f = 0.01 })
    ~t_intervals:t
    ~rng:(Rng.split rng ~label:"run")

let check_sim_parity () =
  let overlay = (Lazy.force fixture).W.overlay in
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 1;
  let a = run_fingerprint (simulate ~overlay ~t:120 ~seed:13) in
  Pool.set_default_jobs 4;
  let b = run_fingerprint (simulate ~overlay ~t:120 ~seed:13) in
  Pool.set_default_jobs saved;
  if a = b then Format.fprintf ppf "sim -j1 == -j4 bit-equality: OK@."
  else failwith "sim -j1 == -j4 bit-equality: FAILED"

(* Wall-clock scaling of the simulation itself on the paper-scale cell
   (Brite default topology, 1000 intervals — the Fig. 4 setting): one
   timed [Run.run] at 1 worker vs 4.  Skip with TOMO_BENCH_SIM=0. *)
let sim_parallel_pass () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "Parallel interval simulation (paper scale, t=1000)@.";
  Format.fprintf ppf
    "==================================================================@.";
  let overlay =
    Tomo_topology.Brite.generate ~params:Tomo_topology.Brite.default ~seed:9 ()
  in
  let t = 1000 in
  let saved = Pool.default_jobs () in
  let time_at jobs =
    Pool.set_default_jobs jobs;
    let best = ref infinity in
    for _ = 1 to 2 do
      let t0 = Unix.gettimeofday () in
      ignore (simulate ~overlay ~t ~seed:29);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let j1 = time_at 1 in
  let j4 = time_at 4 in
  Pool.set_default_jobs saved;
  let speedup = j1 /. j4 in
  Format.fprintf ppf "sim/run-paper -j1: %.2f s@." j1;
  Format.fprintf ppf "sim/run-paper -j4: %.2f s@." j4;
  Format.fprintf ppf "sim/run-paper speedup at 4 domains: %.2fx@.@." speedup;
  (t, j1, j4, speedup)

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the disabled instrumentation path               *)
(* ------------------------------------------------------------------ *)

(* The serve loop calls [Metrics.observe] four times per tick (the stage
   profile) and [Events.emit] on lifecycle edges, always through the
   same call sites whether or not a sink is configured.  This pass pins
   the contract that the disabled path is a single predictable branch:
   the printed rows land in BENCH_perf.json and CI greps the
   "obs/observe-disabled" line.  Hand-timed rather than Bechamel'd
   because the enabled/disabled split needs explicit global toggling
   around each loop. *)
let obs_overhead_pass () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "Telemetry overhead (disabled-path contract)@.";
  Format.fprintf ppf
    "==================================================================@.";
  let h = Tomo_obs.Metrics.histogram "bench_obs_overhead_s" in
  let attrs = [ ("tick", "0"); ("rows", "565") ] in
  let time_ns n f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for i = 1 to n do
        f i
      done;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best *. 1e9 /. float_of_int n
  in
  let n = 5_000_000 in
  let was = Tomo_obs.Metrics.enabled () in
  Tomo_obs.Metrics.set_enabled false;
  let observe_off =
    time_ns n (fun i ->
        Tomo_obs.Metrics.observe h (float_of_int i *. 1e-9))
  in
  Tomo_obs.Metrics.set_enabled true;
  let observe_on =
    time_ns n (fun i ->
        Tomo_obs.Metrics.observe h (float_of_int i *. 1e-9))
  in
  Tomo_obs.Metrics.set_enabled was;
  (* Events must be unconfigured here (Sink.init never enables them);
     this is the cost every engine call site pays in a plain run. *)
  assert (not (Tomo_obs.Events.enabled ()));
  let emit_off =
    time_ns n (fun _ -> Tomo_obs.Events.emit "bench_noop" attrs)
  in
  let rows =
    [
      ("obs/observe-disabled", observe_off, nan);
      ("obs/observe-enabled", observe_on, nan);
      ("obs/emit-disabled", emit_off, nan);
    ]
  in
  List.iter
    (fun (name, ns, _) -> Format.fprintf ppf "%s: %.1f ns/call@." name ns)
    rows;
  Format.fprintf ppf "@.";
  rows

(* Network ingestion plane: the frame decoder alone (ns per decoded
   frame, fed in socket-sized chunks), and end-to-end single-peer
   ingest throughput over a real Unix socketpair into a Hub whose
   window never fills (so the numbers isolate the transport + parse +
   queue path, not the solver).  Hand-timed: both are wall-clock
   passes over a fixed workload, not a Bechamel closure. *)
let net_pass () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "Network ingestion (frame decode, socket ingest)@.";
  Format.fprintf ppf
    "==================================================================@.";
  let w = Lazy.force fixture in
  let model = w.W.model in
  let n_paths = model.Tomo.Model.n_paths in
  let rng = Rng.create 9 in
  let column () =
    String.init n_paths (fun _ -> if Rng.bool rng ~p:0.7 then '1' else '0')
  in
  let n_ticks = 2000 in
  let wire =
    let b = Buffer.create (n_ticks * (n_paths + 16)) in
    Tomo_net.Frame.encode_into b "peer bench";
    Tomo_net.Frame.encode_into b "tomo-trace v1";
    Tomo_net.Frame.encode_into b (Printf.sprintf "paths %d" n_paths);
    for i = 0 to n_ticks - 1 do
      Tomo_net.Frame.encode_into b (Printf.sprintf "tick %d %s" i (column ()))
    done;
    Buffer.contents b
  in
  let n_frames = n_ticks + 3 in
  (* decode alone, fed in 64 KiB chunks as a socket reader would *)
  let decode_ns =
    let best = ref infinity in
    for _ = 1 to 5 do
      let dec = Tomo_net.Frame.create () in
      let t0 = Unix.gettimeofday () in
      let off = ref 0 in
      while !off < String.length wire do
        let len = min 65536 (String.length wire - !off) in
        Tomo_net.Frame.feed dec
          (Bytes.unsafe_of_string wire)
          ~off:!off ~len;
        while Tomo_net.Frame.next dec <> None do
          ()
        done;
        off := !off + len
      done;
      assert (Tomo_net.Frame.frames_decoded dec = n_frames);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best *. 1e9 /. float_of_int n_frames
  in
  (* end-to-end: socketpair → reader thread → record parse → queue →
     drain loop (window larger than the trace, so no estimates) *)
  let ingest_ns =
    let best = ref infinity in
    for _ = 1 to 3 do
      let hub =
        Tomo_net.Hub.create ~model ~window:(n_ticks + 1)
          ~queue_capacity:256 ()
      in
      let server, client =
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      let t0 = Unix.gettimeofday () in
      Tomo_net.Hub.attach hub server;
      let runner = Thread.create Tomo_net.Hub.run hub in
      let writer =
        Thread.create
          (fun () ->
            let b = Bytes.unsafe_of_string wire in
            let off = ref 0 in
            (try
               while !off < Bytes.length b do
                 off :=
                   !off + Unix.write client b !off (Bytes.length b - !off)
               done
             with Unix.Unix_error _ -> ());
            try Unix.close client with Unix.Unix_error _ -> ())
          ()
      in
      while
        (Tomo_net.Hub.stats hub).Tomo_net.Hub.ticks_ingested < n_ticks
      do
        Thread.yield ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      Tomo_net.Hub.request_stop hub;
      Thread.join runner;
      Thread.join writer;
      best := Float.min !best dt
    done;
    !best *. 1e9 /. float_of_int n_ticks
  in
  Format.fprintf ppf "net/decode-frame: %.1f ns/frame@." decode_ns;
  Format.fprintf ppf "net/ingest-throughput: %.1f ns/tick (%.0f ticks/s)@.@."
    ingest_ns
    (1e9 /. ingest_ns);
  [ ("net/decode-frame", decode_ns, nan);
    ("net/ingest-throughput", ingest_ns, nan) ]

let bench_tests () =
  let w = Lazy.force fixture in
  let wc = Lazy.force fixture_corr in
  let model = w.W.model and obs = w.W.obs in
  let congested_paths, good_paths = interval_inputs w in
  (* Fig. 3 kernels: the per-interval inference each cell runs 1000×. *)
  let pc_ind = Tomo.Independence_pc.compute model obs in
  let _, engine = Tomo.Correlation_complete.compute model obs in
  let selection = Tomo.Algorithm1.select model obs in
  let fig3_tests =
    [
      Test.make ~name:"fig3/sparsity-interval"
        (Staged.stage (fun () ->
             Tomo.Sparsity.infer model ~congested_paths ~good_paths));
      Test.make ~name:"fig3/bayesian-independence-interval"
        (Staged.stage (fun () ->
             Tomo.Bayesian.infer_independence model
               ~marginals:pc_ind.Tomo.Pc_result.marginals ~congested_paths
               ~good_paths));
      Test.make ~name:"fig3/bayesian-correlation-interval"
        (Staged.stage (fun () ->
             Tomo.Bayesian.infer_correlation model ~engine ~congested_paths
               ~good_paths));
    ]
  in
  (* Fig. 4 workloads: one Probability Computation solve per algorithm
     (the unit of work behind every bar of Fig. 4a/4b). *)
  let fig4_tests =
    [
      Test.make ~name:"fig4/independence-pc"
        (Staged.stage (fun () -> Tomo.Independence_pc.compute model obs));
      Test.make ~name:"fig4/correlation-heuristic"
        (Staged.stage (fun () ->
             Tomo.Correlation_heuristic.compute model obs));
      Test.make ~name:"fig4/correlation-complete"
        (Staged.stage (fun () ->
             Tomo.Correlation_complete.compute model obs));
      Test.make ~name:"fig4c/error-cdf"
        (Staged.stage (fun () ->
             let r = Tomo.Independence_pc.compute wc.W.model wc.W.obs in
             Fig4.link_errors wc r));
      (let reg =
         engine.Tomo.Prob_engine.selection.Tomo.Algorithm1.registry
       in
       (* The unit of work behind Fig. 4(d): one correlation-subset
          congestion probability. *)
       let subset =
         let found = ref None in
         for v = 0 to Tomo.Eqn.n_vars reg - 1 do
           let s = Tomo.Eqn.subset_of_var reg v in
           if !found = None && Array.length s.Tomo.Subsets.links >= 2 then
             found := Some s
         done;
         !found
       in
       Test.make ~name:"fig4d/subset-congestion-prob"
         (Staged.stage (fun () ->
              match subset with
              | Some s ->
                  ignore
                    (Tomo.Prob_engine.congestion_prob engine
                       ~corr:s.Tomo.Subsets.corr s.Tomo.Subsets.links)
              | None -> ())));
    ]
  in
  (* Substrate kernels + the Algorithm 2 ablation. *)
  let rng = Rng.create 5 in
  let amatrix =
    Matrix.init 60 80 (fun _ _ -> if Rng.bool rng ~p:0.3 then 1.0 else 0.0)
  in
  let nsp = Nullspace.basis amatrix in
  let new_row =
    Array.init 80 (fun _ -> if Rng.bool rng ~p:0.3 then 1.0 else 0.0)
  in
  (* Fixed mixed batch for the Algorithm 2 row, built outside the timed
     region: rows of [amatrix] (already in the row space, exercising the
     reject path) interleaved with fresh random rows (the accept path).
     The old single-row version timed one sub-µs rejection and fit
     poorly (r² ≈ 0.09); folding a constant 16-row batch gives the OLS
     a stable, representative unit of work. *)
  let alg2_batch =
    Array.init 16 (fun i ->
        if i mod 2 = 0 then
          Array.init 80 (fun j -> Matrix.get amatrix (i * 3) j)
        else Array.init 80 (fun _ -> if Rng.bool rng ~p:0.3 then 1.0 else 0.0))
  in
  let stacked =
    Matrix.init 61 80 (fun i j ->
        if i < 60 then Matrix.get amatrix i j else new_row.(j))
  in
  let scenario =
    Scenario.make w.W.overlay ~kind:Scenario.Random ~rng:(Rng.create 3)
      ~frac:0.1
  in
  let factor_probs = Scenario.draw_probs scenario (Rng.create 4) in
  let fmodel = Tomo_netsim.Factor_model.make w.W.overlay factor_probs in
  let some_paths =
    Array.init (min 4 model.Tomo.Model.n_paths) (fun i -> i)
  in
  let kernel_tests =
    [
      Test.make ~name:"kernel/topology-brite-small"
        (Staged.stage (fun () ->
             Tomo_topology.Brite.generate
               ~params:
                 {
                   Tomo_topology.Brite.default with
                   Tomo_topology.Brite.n_ases = 40;
                   n_paths = 150;
                 }
               ~seed:7 ()));
      Test.make ~name:"kernel/topology-sparse-small"
        (Staged.stage (fun () ->
             Tomo_topology.Sparse_topo.generate
               ~params:
                 {
                   Tomo_topology.Sparse_topo.default with
                   Tomo_topology.Sparse_topo.n_ases = 120;
                   n_paths = 150;
                 }
               ~seed:7 ()));
      Test.make ~name:"kernel/simulate-interval"
        (Staged.stage (fun () ->
             Tomo_netsim.Factor_model.draw_interval fmodel rng));
      Test.make ~name:"kernel/estimator-all-good-count"
        (Staged.stage (fun () ->
             Tomo.Observations.all_good_count obs some_paths));
      Test.make ~name:"kernel/algorithm1-select"
        (Staged.stage (fun () -> Tomo.Algorithm1.select model obs));
      (let effective = Tomo.Subsets.effective_links model obs in
       Test.make ~name:"kernel/identifiability-analysis"
         (Staged.stage (fun () ->
              Tomo.Identifiability.analyze model ~effective)));
      (* The per-tick path: two triangular solves against the factor the
         selection already carries. *)
      Test.make ~name:"kernel/prob-engine-solve"
        (Staged.stage (fun () -> Tomo.Prob_engine.solve selection obs));
      (* What a selection pays once for that: ordering + factorization of
         its A·Aᵀ. *)
      (let cols = Tomo.Eqn.n_vars selection.Tomo.Algorithm1.registry
       and rows =
         Array.map (fun r -> r.Tomo.Eqn.vars) selection.Tomo.Algorithm1.rows
       in
       Test.make ~name:"kernel/sparse-chol-factor"
         (Staged.stage (fun () -> Tomo_linalg.Sparse_chol.factor ~cols rows)));
      Test.make ~name:"kernel/nullspace-update-alg2"
        (Staged.stage (fun () ->
             Array.fold_left (fun m r -> Nullspace.update m r) nsp alg2_batch));
      Test.make ~name:"kernel/nullspace-tracker-add"
        (Staged.stage (fun () ->
             (* clone + in-place add: the stateful analogue of [update] *)
             let tr = Nullspace.tracker_of_matrix nsp in
             Nullspace.add_row tr new_row));
      Test.make ~name:"kernel/nullspace-recompute"
        (Staged.stage (fun () -> Nullspace.basis stacked));
    ]
  in
  (* Flat-substrate micro-rows: the word-level bit-set combine and the
     O(1) row-view handoff that the elimination/CG kernels are built
     on.  Fixtures sized so the work is memory-streaming, not
     call-overhead. *)
  let bs_a = Bitset.create 4096 and bs_b = Bitset.create 4096 in
  let bs_scratch = Bitset.create 4096 in
  let bs_rng = Rng.create 0xB5 in
  for i = 0 to 4095 do
    if Rng.bool bs_rng ~p:0.4 then Bitset.set bs_a i;
    if Rng.bool bs_rng ~p:0.4 then Bitset.set bs_b i
  done;
  let rv_matrix =
    Matrix.init 64 256 (fun i j -> float_of_int (((i * 7) + j) mod 13))
  in
  let flat_tests =
    [
      Test.make ~name:"kernel/bitset-union-words"
        (Staged.stage (fun () ->
             Bitset.copy_into ~into:bs_scratch bs_a;
             Bitset.union_into ~into:bs_scratch bs_b;
             Bitset.count bs_scratch));
      Test.make ~name:"kernel/matrix-row-view"
        (Staged.stage (fun () ->
             (* Sum every row through its (buffer, offset) view: the
                zero-copy access pattern of the flat rref/CG loops. *)
             let acc = ref 0.0 in
             for i = 0 to Matrix.rows rv_matrix - 1 do
               let buf, off = Matrix.row_view rv_matrix i in
               for k = 0 to Matrix.cols rv_matrix - 1 do
                 acc := !acc +. Array.unsafe_get buf (off + k)
               done
             done;
             !acc));
    ]
  in
  (* Sparse-vs-dense elimination on the paper-scale incidence fixture:
     the dense pair is what the same system costs as a dense matrix. *)
  let paper_sparse, paper_dense, paper_rows = Lazy.force paper_incidence in
  (* The dependent-row tax, isolated: rejecting a row already in the
     span, with the witness prefilter's O(k·nnz) short-circuit vs the
     exact O(nnz·p) projection.  A row of the incidence system is in its
     row space by construction, and a rejection never mutates the
     tracker, so one tracker per variant is reused across timed calls. *)
  let paper_nullspace () =
    Nullspace.basis_of_incidence ~rows:(Sparse.rows paper_sparse)
      ~cols:(Sparse.cols paper_sparse) paper_rows
  in
  let paper_basis = paper_nullspace () in
  let dep_row = paper_rows.(0) in
  let tr_wit = Nullspace.tracker_of_matrix ~witness_k:2 paper_basis in
  let tr_exact = Nullspace.tracker_of_matrix ~witness_k:0 paper_basis in
  assert (not (Nullspace.add_incidence tr_wit dep_row));
  assert (not (Nullspace.add_incidence tr_exact dep_row));
  let sparse_tests =
    [
      Test.make ~name:"kernel/witness-reject-dependent"
        (Staged.stage (fun () -> Nullspace.add_incidence tr_wit dep_row));
      Test.make ~name:"kernel/exact-reject-dependent"
        (Staged.stage (fun () -> Nullspace.add_incidence tr_exact dep_row));
      Test.make ~name:"kernel/sparse-rref"
        (Staged.stage (fun () -> Sparse_gauss.rref paper_sparse));
      Test.make ~name:"kernel/dense-rref-paper"
        (Staged.stage (fun () -> Gauss.rref paper_dense));
      Test.make ~name:"kernel/sparse-nullspace"
        (Staged.stage paper_nullspace);
      Test.make ~name:"kernel/nullspace-recompute-dense-paper"
        (Staged.stage (fun () -> Nullspace.basis paper_dense));
    ]
  in
  Test.make_grouped ~name:"tomo" ~fmt:"%s %s"
    (fig3_tests @ fig4_tests @ kernel_tests @ flat_tests @ sparse_tests)

let run_benchmarks () =
  Format.fprintf ppf
    "==================================================================@.";
  Format.fprintf ppf "Bechamel micro-benchmarks (ns per call, OLS fit)@.";
  Format.fprintf ppf
    "==================================================================@.";
  let tests = bench_tests () in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:false
      ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> r
        | None -> nan
      in
      rows := (name, ns, r2) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Format.fprintf ppf "%-45s%18s%10s@." "benchmark" "time/call" "r²";
  Format.fprintf ppf "%s@." (String.make 73 '-');
  let pp_time ppf ns =
    if ns > 1e9 then Format.fprintf ppf "%10.3f s " (ns /. 1e9)
    else if ns > 1e6 then Format.fprintf ppf "%10.3f ms" (ns /. 1e6)
    else if ns > 1e3 then Format.fprintf ppf "%10.3f us" (ns /. 1e3)
    else Format.fprintf ppf "%10.1f ns" ns
  in
  List.iter
    (fun (name, ns, r2) ->
      Format.fprintf ppf "%-45s%a%10.3f@." name pp_time ns r2)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

(* One JSON file per bench run, BENCH_perf.json at the workspace root by
   default (dune exec runs with the workspace root as cwd).  Override
   the path with TOMO_BENCH_JSON; set it to the empty string to skip.
   Schema: {"schema","scale","seed","jobs","benchmarks":[{"name",
   "ns_per_call","r_square"}],"metrics":{counters,gauges,histograms}}
   — the metrics object is the same shape Sink.snapshot_json writes, so
   tooling can diff pipeline counters across commits alongside the
   timings. *)
let bench_json_path () =
  match Sys.getenv_opt "TOMO_BENCH_JSON" with
  | Some "" -> None
  | Some p -> Some p
  | None -> Some "BENCH_perf.json"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_nan f then "null" else Printf.sprintf "%.6g" f

let write_bench_json ~rows ~sim ~snapshot =
  match bench_json_path () with
  | None -> ()
  | Some path ->
      let b = Buffer.create 4096 in
      Buffer.add_string b "{\n";
      Buffer.add_string b "  \"schema\": \"tomo-bench/1\",\n";
      Printf.bprintf b "  \"scale\": \"%s\",\n"
        (json_escape (W.scale_to_string scale));
      Printf.bprintf b "  \"seed\": %d,\n" seed;
      Printf.bprintf b "  \"jobs\": %d,\n" (Tomo_par.Pool.default_jobs ());
      (* Host fingerprint: timing rows only compare meaningfully between
         runs on like hardware, and the -j4 sim speedup not at all when
         the core counts differ — check_bench_regression.py keys off
         [cpu_cores] to skip that comparison. *)
      Printf.bprintf b
        "  \"host\": {\"cpu_cores\": %d, \"ocaml_version\": \"%s\", \
         \"word_size\": %d},\n"
        (Domain.recommended_domain_count ())
        (json_escape Sys.ocaml_version)
        Sys.word_size;
      Buffer.add_string b "  \"benchmarks\": [";
      List.iteri
        (fun i (name, ns, r2) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b
            "\n    {\"name\": \"%s\", \"ns_per_call\": %s, \"r_square\": %s}"
            (json_escape name) (json_float ns) (json_float r2))
        rows;
      Buffer.add_string b "\n  ],\n";
      (match sim with
      | None -> ()
      | Some (t_intervals, j1, j4, speedup) ->
          Printf.bprintf b
            "  \"sim_run_paper\": {\"t_intervals\": %d, \"j1_s\": %s, \
             \"j4_s\": %s, \"speedup_j4\": %s},\n"
            t_intervals (json_float j1) (json_float j4) (json_float speedup));
      Printf.bprintf b "  \"metrics\": %s\n"
        (Tomo_obs.Sink.snapshot_json snapshot);
      Buffer.add_string b "}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents b);
      close_out oc;
      Format.fprintf ppf "@.wrote %s@." path

(* When TOMO_METRICS_OUT / TOMO_TRACE are set, print the counter
   snapshot next to the Bechamel numbers (and write the JSON file via
   the sink's exit hook), so BENCH_*.json trajectories carry the
   structural counters — equations formed, null-space updates,
   factorizations, CGLS iterations — behind the timings.  With neither
   variable set the instrumentation stays disabled and adds no
   measurable cost. *)
let emit_metrics_snapshot () =
  if Tomo_obs.Metrics.enabled () then begin
    Format.fprintf ppf
      "@.==================================================================@.";
    Format.fprintf ppf "Metrics snapshot (pipeline counters)@.";
    Format.fprintf ppf
      "==================================================================@.";
    Tomo_obs.Sink.pp_metrics_table ppf ()
  end

let () =
  Tomo_obs.Sink.init ();
  (* Count the pipeline work of the reproduction pass (equations formed,
     null-space updates, factorizations, pool batches) for the JSON
     file, then restore the sink-chosen state so the Bechamel loops run
     with exactly the instrumentation cost the sinks asked for. *)
  let metrics_were_enabled = Tomo_obs.Metrics.enabled () in
  Tomo_obs.Metrics.set_enabled true;
  check_sparse_parity ();
  check_sim_parity ();
  (* Classify the bench workload's links once so the
     [ident_ambiguous_links] counter lands in the JSON snapshot. *)
  (let w = Lazy.force fixture in
   ignore
     (Tomo.Identifiability.ambiguous_links w.W.model
        ~effective:(Tomo.Subsets.effective_links w.W.model w.W.obs)));
  if enabled "TOMO_BENCH_FIGURES" then reproduction_pass ();
  let pipeline_snapshot = Tomo_obs.Metrics.snapshot () in
  Tomo_obs.Metrics.set_enabled metrics_were_enabled;
  let rows =
    if enabled "TOMO_BENCH_PERF" then run_benchmarks () else []
  in
  let sim =
    if enabled "TOMO_BENCH_SIM" then Some (sim_parallel_pass ()) else None
  in
  let obs_rows =
    if enabled "TOMO_BENCH_OBS" then obs_overhead_pass () else []
  in
  let net_rows = if enabled "TOMO_BENCH_NET" then net_pass () else [] in
  let rows =
    rows @ obs_rows @ net_rows
    @
    match sim with
    | None -> []
    | Some (_, j1, j4, _) ->
        [
          ("sim/run-paper-j1", j1 *. 1e9, nan);
          ("sim/run-paper-j4", j4 *. 1e9, nan);
        ]
  in
  emit_metrics_snapshot ();
  write_bench_json ~rows ~sim ~snapshot:pipeline_snapshot;
  Format.fprintf ppf "@.done.@."
