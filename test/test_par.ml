(* Tests for the domain pool: combinator laws (order, exceptions,
   nesting), determinism of the parallel experiment harness (bit-equal
   to the sequential run), and equivalence of the in-place null-space
   tracker with the functional Algorithm-2 update it replaced. *)

module Pool = Tomo_par.Pool
module Matrix = Tomo_linalg.Matrix
module Nullspace = Tomo_linalg.Nullspace
module Rng = Tomo_util.Rng
module Bitset = Tomo_util.Bitset
module Brite = Tomo_topology.Brite
module Scenario = Tomo_netsim.Scenario
module Run = Tomo_netsim.Run
module W = Tomo_experiments.Workload
module Fig3 = Tomo_experiments.Fig3
module Fig4 = Tomo_experiments.Fig4

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Pool laws                                                           *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  List.iter
    (fun jobs ->
      with_pool jobs @@ fun pool ->
      List.iter
        (fun n ->
          let xs = Array.init n (fun i -> i) in
          let ys = Pool.parallel_map ~pool (fun i -> (3 * i) + 1) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            (Array.map (fun i -> (3 * i) + 1) xs)
            ys)
        [ 0; 1; 2; 7; 100; 1000 ])
    [ 1; 2; 4 ]

let test_map_matches_sequential_shuffle () =
  (* Uneven task durations force out-of-order completion; slots must
     still come back in input order. *)
  with_pool 4 @@ fun pool ->
  let xs = Array.init 64 (fun i -> i) in
  let ys =
    Pool.parallel_map ~pool
      (fun i ->
        if i land 3 = 0 then begin
          (* a little busy work to skew completion order *)
          let acc = ref 0 in
          for k = 0 to 20_000 do
            acc := !acc + (k lxor i)
          done;
          ignore !acc
        end;
        i * i)
      xs
  in
  Alcotest.(check (array int)) "squares" (Array.map (fun i -> i * i) xs) ys

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool jobs @@ fun pool ->
      let raised =
        try
          ignore
            (Pool.parallel_map ~pool
               (fun i -> if i = 13 then raise (Boom i) else i)
               (Array.init 40 (fun i -> i)));
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d" jobs)
        (Some 13) raised)
    [ 1; 4 ]

let test_pool_usable_after_exception () =
  with_pool 4 @@ fun pool ->
  (try
     Pool.parallel_iter ~pool
       (fun i -> if i = 2 then failwith "boom")
       (Array.init 8 (fun i -> i))
   with Failure _ -> ());
  let ys = Pool.parallel_map ~pool succ (Array.init 8 (fun i -> i)) in
  Alcotest.(check (array int)) "still works"
    (Array.init 8 (fun i -> i + 1))
    ys

let test_nested_map () =
  (* Each outer task runs an inner parallel_map on the same pool; the
     caller-participation design means this must not deadlock. *)
  with_pool 3 @@ fun pool ->
  let ys =
    Pool.parallel_map ~pool
      (fun i ->
        let inner =
          Pool.parallel_map ~pool (fun j -> i + j) (Array.init 10 (fun j -> j))
        in
        Array.fold_left ( + ) 0 inner)
      (Array.init 12 (fun i -> i))
  in
  Alcotest.(check (array int))
    "nested sums"
    (Array.init 12 (fun i -> (10 * i) + 45))
    ys

let test_iter_runs_all () =
  with_pool 4 @@ fun pool ->
  let n = 200 in
  let cells = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_iter ~pool
    (fun i -> Atomic.incr cells.(i))
    (Array.init n (fun i -> i));
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "cell %d" i) 1 (Atomic.get c))
    cells

let test_jobs_clamped () =
  with_pool 0 @@ fun pool ->
  check_int "jobs >= 1" 1 (Pool.jobs pool);
  let ys = Pool.parallel_map ~pool succ [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "sequential fallback" [| 2; 3; 4 |] ys

let test_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.parallel_map: pool is shut down") (fun () ->
      ignore (Pool.parallel_map ~pool succ [| 1; 2 |]))

(* [set_default_jobs] must behave exactly like the [default ()] path:
   install the pool it was given and leave it usable.  The at_exit half
   of the regression (set_default_jobs as the *first* touch of the
   default pool, then a clean process exit) lives in test_pool_exit.ml,
   which would be killed by SIGALRM if the shutdown hook were missing. *)
let test_set_default_jobs_installs () =
  Pool.set_default_jobs 3;
  check_int "default pool has the requested size" 3
    (Pool.jobs (Pool.default ()));
  let ys = Pool.parallel_map succ (Array.init 64 (fun i -> i)) in
  Alcotest.(check (array int))
    "default pool is usable"
    (Array.init 64 (fun i -> i + 1))
    ys;
  Pool.set_default_jobs 1

(* ------------------------------------------------------------------ *)
(* Determinism: parallel experiments == sequential experiments         *)
(* ------------------------------------------------------------------ *)

let test_fig3_bit_identical () =
  Pool.set_default_jobs 1;
  let seq = Fig3.run_averaged ~scale:W.Small ~seeds:[ 3; 4 ] in
  Pool.set_default_jobs 4;
  let par = Fig3.run_averaged ~scale:W.Small ~seeds:[ 3; 4 ] in
  Pool.set_default_jobs 1;
  (* Structural equality on floats: bit-identical, not approximately. *)
  check_bool "fig3 -j1 == -j4" true (seq = par)

let test_fig4a_bit_identical () =
  Pool.set_default_jobs 1;
  let seq = Fig4.run_mae_averaged ~topology:W.Brite ~scale:W.Small ~seeds:[ 5 ] in
  Pool.set_default_jobs 4;
  let par = Fig4.run_mae_averaged ~topology:W.Brite ~scale:W.Small ~seeds:[ 5 ] in
  Pool.set_default_jobs 1;
  check_bool "fig4a -j1 == -j4" true (seq = par)

let matrices_equal a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  &&
  let ok = ref true in
  for i = 0 to Matrix.rows a - 1 do
    for j = 0 to Matrix.cols a - 1 do
      if Matrix.get a i j <> Matrix.get b i j then ok := false
    done
  done;
  !ok

(* Sparse-kernel path under the pool: every worker runs the sparse
   elimination and a sparse CGLS solve (per-domain DLS scratch) on its
   own systems; results must be bit-equal to the sequential run.  This
   guards against scratch sharing leaking across domains. *)
let test_sparse_kernel_bit_identical () =
  let module Sparse = Tomo_linalg.Sparse in
  let module Sparse_gauss = Tomo_linalg.Sparse_gauss in
  let module Cgls = Tomo_linalg.Cgls in
  let n_tasks = 16 in
  let run_task seed =
    let rng = Rng.create (1000 + seed) in
    let nvars = 60 and nrows = 75 in
    let idxs =
      Array.init nrows (fun _ ->
          let r = ref [] in
          for j = nvars - 1 downto 0 do
            if Rng.bool rng ~p:0.1 then r := j :: !r
          done;
          Array.of_list !r)
    in
    let a = Sparse.of_incidence ~rows:nrows ~cols:nvars idxs in
    let { Sparse_gauss.reduced; pivot_cols; rank } = Sparse_gauss.rref a in
    let b = Array.init nrows (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.) in
    let x = Cgls.solve_sparse ~a ~b () in
    let basis = Nullspace.basis_of_incidence ~rows:nrows ~cols:nvars idxs in
    (Sparse.to_matrix reduced, pivot_cols, rank, x, basis)
  in
  let seeds = Array.init n_tasks (fun i -> i) in
  let seq = Array.map run_task seeds in
  with_pool 4 @@ fun pool ->
  let par = Pool.parallel_map ~pool run_task seeds in
  Array.iteri
    (fun i (rd, pc, rk, x, bs) ->
      let rd', pc', rk', x', bs' = par.(i) in
      check_bool "reduced" true (matrices_equal rd rd');
      check_bool "pivots" true (pc = pc');
      check_int "rank" rk rk';
      check_bool "cgls solution" true (x = x');
      check_bool "nullspace basis" true (matrices_equal bs bs'))
    seq

(* One factor, two domains: the factor is immutable and each solve
   allocates its own work vector, so domains solving against a shared
   selection at the same time must read exactly what a lone solve
   reads. *)
let test_shared_factor_two_domains () =
  let module Sparse_chol = Tomo_linalg.Sparse_chol in
  let module Sparse_gauss = Tomo_linalg.Sparse_gauss in
  let rng = Rng.create 77 in
  let nvars = 120 in
  let rows =
    Array.init 150 (fun _ ->
        let r = ref [] in
        for j = nvars - 1 downto 0 do
          if Rng.bool rng ~p:0.06 then r := j :: !r
        done;
        match !r with [] -> [| Rng.int rng nvars |] | l -> Array.of_list l)
  in
  let keep = Sparse_gauss.select_independent ~cols:nvars rows in
  let rows =
    Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list rows))
  in
  let f = Sparse_chol.factor ~cols:nvars rows in
  let rhs =
    Array.init 200 (fun _ ->
        Array.init (Array.length rows) (fun _ ->
            Rng.uniform rng ~lo:(-3.) ~hi:0.))
  in
  let expected = Array.map (Sparse_chol.solve f) rhs in
  let solve_all () = Array.map (Sparse_chol.solve f) rhs in
  let d1 = Domain.spawn solve_all and d2 = Domain.spawn solve_all in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let bits = Array.map (Array.map Int64.bits_of_float) in
  check_bool "domain 1 == lone solve" true (bits r1 = bits expected);
  check_bool "domain 2 == lone solve" true (bits r2 = bits expected)

(* The simulator itself under the pool: every interval derives its own
   RNG streams from its index, so the interval fan-out inside [Run.run]
   must be bit-identical whatever the pool size — across dynamics and
   both measurement models. *)
let run_fingerprint (r : Run.result) =
  ( Array.map Bitset.to_list r.Run.link_congested,
    Array.map Bitset.to_list r.Run.path_good,
    List.map (fun (e : Run.epoch) -> (e.Run.length, e.Run.probs)) r.Run.epochs
  )

let prop_run_bit_identical (seed, nonstationary, probed) =
  let simulate () =
    let ov =
      Brite.generate
        ~params:{ Brite.default with Brite.n_ases = 30; n_paths = 80 }
        ~seed ()
    in
    let rng = Rng.create (seed * 7919) in
    let scenario =
      Scenario.make ov ~kind:Scenario.Random ~frac:0.1
        ~rng:(Rng.split rng ~label:"scenario")
    in
    let dynamics =
      if nonstationary then Run.Redraw_every 17 else Run.Stationary
    in
    let measurement =
      if probed then Run.Probes { per_path = 25; f = 0.01 } else Run.Ideal
    in
    run_fingerprint
      (Run.run ~scenario ~dynamics ~measurement ~t_intervals:50
         ~rng:(Rng.split rng ~label:"run"))
  in
  Pool.set_default_jobs 1;
  let seq = simulate () in
  Pool.set_default_jobs 4;
  let par = simulate () in
  Pool.set_default_jobs 1;
  seq = par

let run_bit_identical_qcheck =
  QCheck.Test.make ~count:8 ~name:"Run.run -j1 == -j4 (bit-identical)"
    QCheck.(triple (int_range 0 10_000) bool bool)
    prop_run_bit_identical

(* ------------------------------------------------------------------ *)
(* Tracker == functional null-space update                             *)
(* ------------------------------------------------------------------ *)

let random_01_row rng n p = Array.init n (fun _ -> if Rng.bool rng ~p then 1.0 else 0.0)

(* Feed the same random 0/1 rows to (a) the functional [update] chain
   and (b) the in-place tracker; they must agree exactly — same accept/
   reject verdicts, same basis matrix bit for bit, same weights. *)
let prop_tracker_equals_update (seed, n, rows) =
  let rng = Rng.create seed in
  let tracker = Nullspace.tracker n in
  let basis = ref (Matrix.identity n) in
  let ok = ref true in
  for _ = 1 to rows do
    let row = random_01_row rng n 0.35 in
    let before = Matrix.cols !basis in
    let updated = Nullspace.update !basis row in
    let accepted_fn = Matrix.cols updated < before in
    basis := updated;
    let accepted_tr = Nullspace.add_row tracker row in
    if accepted_fn <> accepted_tr then ok := false
  done;
  let m = Nullspace.to_matrix tracker in
  if not (matrices_equal m !basis) then ok := false;
  (* weights must match a recount of the final basis *)
  for v = 0 to n - 1 do
    let w = ref 0 in
    for j = 0 to Matrix.cols m - 1 do
      if abs_float (Matrix.get m v j) > 1e-8 then incr w
    done;
    if !w <> Nullspace.row_weight tracker v then ok := false
  done;
  Nullspace.dim tracker = Matrix.cols !basis && !ok

let tracker_qcheck =
  QCheck.Test.make ~count:60 ~name:"tracker == functional update"
    QCheck.(
      triple (int_range 0 1000) (int_range 1 24) (int_range 0 40))
    prop_tracker_equals_update

let test_tracker_incidence_equals_update_incidence () =
  let rng = Rng.create 11 in
  let n = 18 in
  let tracker = Nullspace.tracker n in
  let basis = ref (Matrix.identity n) in
  for _ = 1 to 30 do
    let k = 1 + Rng.int rng 5 in
    let idxs =
      Array.init k (fun _ -> Rng.int rng n)
      |> Array.to_list |> List.sort_uniq compare |> Array.of_list
    in
    let accepted_fn =
      match Nullspace.update_incidence !basis idxs with
      | Some n' ->
          basis := n';
          true
      | None -> false
    in
    let accepted_tr = Nullspace.add_incidence tracker idxs in
    check_bool "verdict" accepted_fn accepted_tr
  done;
  check_bool "final basis" true (matrices_equal (Nullspace.to_matrix tracker) !basis)

let () =
  Pool.set_default_jobs 1;
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "map skewed durations" `Quick
            test_map_matches_sequential_shuffle;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "usable after exception" `Quick
            test_pool_usable_after_exception;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "iter runs all" `Quick test_iter_runs_all;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "shutdown" `Quick test_shutdown_rejects;
          Alcotest.test_case "set_default_jobs installs the pool" `Quick
            test_set_default_jobs_installs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig3 bit-identical" `Slow
            test_fig3_bit_identical;
          Alcotest.test_case "fig4a bit-identical" `Slow
            test_fig4a_bit_identical;
          Alcotest.test_case "sparse kernels bit-identical" `Quick
            test_sparse_kernel_bit_identical;
          Alcotest.test_case "shared factor, two domains" `Quick
            test_shared_factor_two_domains;
          QCheck_alcotest.to_alcotest run_bit_identical_qcheck;
        ] );
      ( "tracker",
        [
          QCheck_alcotest.to_alcotest tracker_qcheck;
          Alcotest.test_case "incidence parity" `Quick
            test_tracker_incidence_equals_update_incidence;
        ] );
    ]
