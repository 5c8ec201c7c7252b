(* Tests for the linear-algebra substrate: the null-space tracker, the
   sparse kernels, the paper's Algorithm 2 (incremental null-space
   update) and the dense reference oracles in test/oracles they are
   checked against, with the oracles' matrix container. *)

module Matrix = Tomo_oracles.Matrix
module Dense = Tomo_oracles.Dense
module Gauss = Tomo_oracles.Gauss
module Qr = Tomo_oracles.Qr
module Lstsq = Tomo_oracles.Lstsq
module Nullspace = Tomo_linalg.Nullspace
module Sparse = Tomo_linalg.Sparse
module Rng = Tomo_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-7))

let random_matrix rng r c =
  Matrix.init r c (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

(* A random 0/1 matrix with a prescribed rank bound, built as a product of
   0/1-ish factors; mimics tomography incidence structure. *)
let random_low_rank rng r c rank =
  let a = random_matrix rng r rank and b = random_matrix rng rank c in
  Dense.mul a b

(* The dense reference elimination of a [Matrix.t]. *)
let rref m = Gauss.rref ~cols:(Matrix.cols m) (Dense.to_rows m)
let rank m = (rref m).Gauss.rank

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)
(* ------------------------------------------------------------------ *)

let test_matrix_basic () =
  let m = Matrix.init 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  check_int "rows" 2 (Matrix.rows m);
  check_int "cols" 3 (Matrix.cols m);
  checkf "get" 5.0 (Matrix.get m 1 2);
  Matrix.set m 1 2 9.0;
  checkf "set" 9.0 (Matrix.get m 1 2);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Matrix: index out of range") (fun () ->
      ignore (Matrix.get m 2 0))

let test_matrix_mul () =
  let a = Dense.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Dense.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Dense.mul a b in
  checkf "c00" 19.0 (Matrix.get c 0 0);
  checkf "c01" 22.0 (Matrix.get c 0 1);
  checkf "c10" 43.0 (Matrix.get c 1 0);
  checkf "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_vec () =
  let a = Dense.of_rows [| [| 1.; 2.; 3. |]; [| 0.; 1.; 0. |] |] in
  let v = Dense.mul_vec a [| 1.; 1.; 1. |] in
  checkf "mul_vec 0" 6.0 v.(0);
  checkf "mul_vec 1" 1.0 v.(1);
  let w = Dense.vec_mul [| 1.; 2. |] a in
  checkf "vec_mul 0" 1.0 w.(0);
  checkf "vec_mul 1" 4.0 w.(1);
  checkf "vec_mul 2" 3.0 w.(2)

let test_matrix_transpose () =
  let a = Dense.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Dense.transpose a in
  check_int "t rows" 3 (Matrix.rows t);
  checkf "t(2,1)" 6.0 (Matrix.get t 2 1)

let test_matrix_swap () =
  let a = Dense.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  Dense.swap_cols a 0 2;
  checkf "swapped" 3.0 (Matrix.get a 0 0);
  checkf "second row swapped" 4.0 (Matrix.get a 1 2);
  checkf "middle kept" 5.0 (Matrix.get a 1 1)

(* ---- Storage edge cases ---- *)

let test_matrix_degenerate_shapes () =
  let z = Matrix.make 0 5 0.0 in
  check_int "0-row rows" 0 (Matrix.rows z);
  check_int "0-row cols" 5 (Matrix.cols z);
  check_bool "0-row to_rows" true (Dense.to_rows z = [||]);
  let n = Matrix.make 3 0 0.0 in
  check_int "0-col rows" 3 (Matrix.rows n);
  check_bool "0-col rows are empty" true (Dense.to_rows n = [| [||]; [||]; [||] |]);
  checkf "0-col max_abs" 0.0 (Dense.max_abs n);
  let one = Matrix.make 1 1 7.5 in
  checkf "1x1 get" 7.5 (Matrix.get one 0 0);
  check_bool "1x1 to_rows" true (Dense.to_rows one = [| [| 7.5 |] |])

let check_invalid_arg_with name needles f =
  match f () with
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          let found =
            let nl = String.length needle and ml = String.length msg in
            let rec go i =
              i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
            in
            go 0
          in
          check_bool (name ^ ": mentions " ^ needle) true found)
        needles
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_matrix_of_rows_rejections () =
  (* Both rejections carry a [file:line:] prefix naming the check site,
     matching the Observations_io loader style. *)
  check_invalid_arg_with "empty"
    [ "dense.ml:"; "empty row array"; "Matrix.make 0 c" ]
    (fun () -> Dense.of_rows [||]);
  check_invalid_arg_with "ragged"
    [ "dense.ml:"; "ragged rows"; "row 1 has 3 columns, row 0 has 2" ]
    (fun () -> Dense.of_rows [| [| 1.; 2. |]; [| 1.; 2.; 3. |] |])

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:50
    QCheck.(pair (Qgen.int_range 1 12) (Qgen.int_range 1 12))
    (fun (r, c) ->
      let rng = Rng.create (r + (100 * c)) in
      let m = random_matrix rng r c in
      Dense.equal_approx ~tol:0.0 m (Dense.transpose (Dense.transpose m)))

let prop_mul_identity =
  QCheck.Test.make ~name:"A·I = A and I·A = A" ~count:50
    QCheck.(pair (Qgen.int_range 1 10) (Qgen.int_range 1 10))
    (fun (r, c) ->
      let rng = Rng.create (r + (57 * c)) in
      let m = random_matrix rng r c in
      Dense.equal_approx ~tol:1e-12 m (Dense.mul m (Matrix.identity c))
      && Dense.equal_approx ~tol:1e-12 m (Dense.mul (Matrix.identity r) m))

(* ------------------------------------------------------------------ *)
(* Gauss: the dense reference elimination                              *)
(* ------------------------------------------------------------------ *)

let test_gauss_rank () =
  let full = Dense.of_rows [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  check_int "identity rank" 2 (rank full);
  let deficient =
    Dense.of_rows [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |]
  in
  check_int "rank-1 matrix" 1 (rank deficient)

(* [rref] of the augmented matrix [A | B] for a square, nonsingular [A]
   reduces the left half to the identity, leaving [A⁻¹·B] on the right. *)
let augmented a b =
  let n = Matrix.rows a and k = Matrix.cols b in
  Matrix.init n (n + k) (fun i j ->
      if j < n then Matrix.get a i j else Matrix.get b i (j - n))

let right_half { Gauss.reduced; _ } n =
  Matrix.init n (Array.length reduced.(0) - n) (fun i j -> reduced.(i).(n + j))

let test_gauss_solve () =
  let a = Dense.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let r = rref (augmented a (Dense.of_rows [| [| 5. |]; [| 10. |] |])) in
  check_bool "pivots in A" true (r.Gauss.pivot_cols = [ 0; 1 ]);
  let x = right_half r 2 in
  checkf "x0" 1.0 (Matrix.get x 0 0);
  checkf "x1" 3.0 (Matrix.get x 1 0)

let test_gauss_singular () =
  (* A singular A leaves a pivot in the right-hand column: the system
     [x0 + x1 = 1; 2x0 + 2x1 = 3] is inconsistent. *)
  let a = Dense.of_rows [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  let r = rref (augmented a (Dense.of_rows [| [| 1. |]; [| 3. |] |])) in
  check_int "rank of A" 1 (rank a);
  check_bool "pivot lands in the right-hand side" true
    (r.Gauss.pivot_cols = [ 0; 2 ])

let test_gauss_inverse () =
  let a = Dense.of_rows [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = right_half (rref (augmented a (Matrix.identity 2))) 2 in
  let prod = Dense.mul a inv in
  check_bool "A·A⁻¹ = I" true
    (Dense.equal_approx ~tol:1e-9 prod (Matrix.identity 2))

let prop_rank_product_bound =
  QCheck.Test.make ~name:"rank(AB) <= min(rank A, rank B) via low-rank build"
    ~count:50
    QCheck.(
      triple (Qgen.int_range 2 10) (Qgen.int_range 2 10) (Qgen.int_range 1 4))
    (fun (r, c, k) ->
      let rng = Rng.create ((r * 1000) + (c * 10) + k) in
      let m = random_low_rank rng r c (min k (min r c)) in
      rank m <= min k (min r c))

(* ------------------------------------------------------------------ *)
(* QR / least squares                                                  *)
(* ------------------------------------------------------------------ *)

let test_qr_reconstruct () =
  let rng = Rng.create 17 in
  let a = random_matrix rng 6 4 in
  let t = Qr.decompose a in
  check_int "full rank" 4 t.Qr.rank;
  let q = Qr.q t and r = Qr.r t in
  (* Q·R should equal A with its columns permuted by perm. *)
  let ap =
    Matrix.init 6 4 (fun i j -> Matrix.get a i t.Qr.perm.(j))
  in
  check_bool "QR = A·P" true
    (Dense.equal_approx ~tol:1e-8 ap (Dense.mul q r))

let test_qr_orthogonal () =
  let rng = Rng.create 23 in
  let a = random_matrix rng 5 5 in
  let t = Qr.decompose a in
  let q = Qr.q t in
  let qtq = Dense.mul (Dense.transpose q) q in
  check_bool "QᵀQ = I" true
    (Dense.equal_approx ~tol:1e-8 qtq (Matrix.identity 5))

let test_lstsq_exact () =
  let a = Dense.of_rows [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let b = [| 1.; 2.; 3. |] in
  let { Lstsq.solution; rank; residual_norm } = Lstsq.solve a b in
  check_int "rank" 2 rank;
  checkf "x0" 1.0 solution.(0);
  checkf "x1" 2.0 solution.(1);
  checkf "consistent system residual" 0.0 residual_norm

let test_lstsq_overdetermined () =
  (* Fit y = c over observations 1, 2, 3: least squares mean. *)
  let a = Dense.of_rows [| [| 1. |]; [| 1. |]; [| 1. |] |] in
  let { Lstsq.solution; _ } = Lstsq.solve a [| 1.; 2.; 3. |] in
  checkf "mean fit" 2.0 solution.(0)

let test_lstsq_rank_deficient () =
  (* x0 + x1 = 2 twice: any (a, 2-a) minimizes; basic solution picks one
     and must reproduce the rhs. *)
  let a = Dense.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let { Lstsq.solution; rank; residual_norm } = Lstsq.solve a [| 2.; 2. |] in
  check_int "rank 1" 1 rank;
  checkf "residual 0" 0.0 residual_norm;
  checkf "sum constraint" 2.0 (solution.(0) +. solution.(1))

let prop_lstsq_residual_orthogonal =
  QCheck.Test.make
    ~name:"least-squares residual orthogonal to column space" ~count:60
    QCheck.(pair (Qgen.int_range 2 12) (Qgen.int_range 1 8))
    (fun (m, n) ->
      let n = min n m in
      let rng = Rng.create ((m * 131) + n) in
      let a = random_matrix rng m n in
      let b = Array.init m (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.) in
      let { Lstsq.solution; _ } = Lstsq.solve a b in
      let r = Dense.mul_vec a solution in
      let resid = Array.mapi (fun i ri -> ri -. b.(i)) r in
      let atr = Dense.vec_mul resid a in
      Array.for_all (fun x -> abs_float x < 1e-6) atr)

(* ------------------------------------------------------------------ *)
(* Null space + Algorithm 2                                            *)
(* ------------------------------------------------------------------ *)

(* max |R · N| for the incidence system [rows] and a basis [n]: each
   entry is the sum of the basis rows the equation names. *)
let incidence_residual rows n =
  let worst = ref 0.0 in
  Array.iter
    (fun idxs ->
      for k = 0 to Matrix.cols n - 1 do
        let s = Array.fold_left (fun acc i -> acc +. Matrix.get n i k) 0.0 idxs in
        worst := Float.max !worst (abs_float s)
      done)
    rows;
  !worst

let tracker_of rows ~cols =
  Nullspace.of_incidence ~rows:(Array.length rows) ~cols rows

(* The tracker's basis as an [nvars × p] oracle matrix. *)
let matrix_of ~nvars tr = Dense.of_columns ~rows:nvars (Nullspace.columns tr)
let basis_of rows ~cols = matrix_of ~nvars:cols (tracker_of rows ~cols)

(* A random 0/1 incidence system: each row names the columns a biased
   coin picks. *)
let random_incidence_rows rng ~rows ~cols p =
  Array.init rows (fun _ ->
      List.filter (fun _ -> Rng.bool rng ~p) (List.init cols Fun.id)
      |> Array.of_list)

let test_nullspace_basic () =
  (* x + y + z = 0 has a 2-dimensional null space. *)
  let rows = [| [| 0; 1; 2 |] |] in
  let n = basis_of rows ~cols:3 in
  check_int "nullity" 2 (Matrix.cols n);
  checkf "R·N = 0" 0.0 (incidence_residual rows n)

let test_nullspace_trivial () =
  let n = basis_of [| [| 0 |]; [| 1 |]; [| 2 |] |] ~cols:3 in
  check_int "identity nullity" 0 (Matrix.cols n)

let test_determined () =
  (* System x0 + x1 = b1, x0 = b2 identifies both x0 and x1; the system
     x0 + x1 alone identifies neither, and x2 of x0 + x1 = b1,
     x2 = b2 is identified on its own. *)
  let full =
    Nullspace.determined (tracker_of [| [| 0; 1 |]; [| 0 |] |] ~cols:2)
  in
  check_bool "x0 identifiable" true full.(0);
  check_bool "x1 identifiable" true full.(1);
  let part = Nullspace.determined (tracker_of [| [| 0; 1 |] |] ~cols:2) in
  check_bool "x0 not identifiable" false part.(0);
  check_bool "x1 not identifiable" false part.(1);
  Alcotest.(check (array bool))
    "x2 alone" [| false; false; true |]
    (Nullspace.determined (tracker_of [| [| 0; 1 |]; [| 2 |] |] ~cols:3));
  (* An entry between the tracker's tolerance (1e-8) and the flags'
     (1e-6): the weight counts it, the flag ignores it. *)
  let planted =
    Nullspace.of_columns ~nvars:3
      [| [| 1.0; 5e-7; 0.0 |]; [| -1.0; 0.0; 1e-9 |] |]
  in
  Alcotest.(check (array bool))
    "planted at 5e-7" [| false; true; true |]
    (Nullspace.determined planted);
  check_int "weight counts it" 1 (Nullspace.row_weight planted 1);
  check_int "below both tolerances" 0 (Nullspace.row_weight planted 2);
  Alcotest.(check (array bool))
    "at a tolerance of 1e-8" [| false; false; true |]
    (Nullspace.determined ~tol:1e-8 planted)

(* The flags against a reading of the oracle basis at 1e-6: a variable
   is determined iff its row of the sorted-merge basis is within 1e-6 of
   zero in every column. *)
let prop_determined_matches_oracle =
  QCheck.Test.make ~name:"determined ≡ oracle basis rows at 1e-6" ~count:150
    QCheck.(triple (int_range 0 12) (Qgen.int_range 1 12) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 41_000) in
      let rows = random_incidence_rows rng ~rows:r ~cols:c 0.3 in
      let o = Tomo_oracles.Sparse_rref.basis ~tol:1e-8 ~rows:r ~cols:c rows in
      Nullspace.determined
        (Nullspace.of_incidence ~tol:1e-8 ~rows:r ~cols:c rows)
      = Array.init c (fun i ->
            List.for_all
              (fun k -> abs_float (Matrix.get o i k) <= 1e-6)
              (List.init (Matrix.cols o) Fun.id)))

(* Line 13 of Algorithm 1: a row reduces the rank iff [r · N ≠ 0]. *)
let test_reduces_rank () =
  let tr = tracker_of [| [| 0; 1 |] |] ~cols:3 in
  check_bool "dependent row does not reduce" false
    (Nullspace.add_incidence tr [| 0; 1 |]);
  check_int "nullity unchanged" 2 (Nullspace.dim tr);
  check_bool "independent row reduces" true (Nullspace.add_incidence tr [| 2 |]);
  check_int "nullity drops" 1 (Nullspace.dim tr)

let test_update_matches_recompute () =
  let rows = [| [| 0; 1 |]; [| 2; 3 |] |] in
  let tr = tracker_of rows ~cols:4 in
  check_int "initial nullity" 2 (Nullspace.dim tr);
  check_bool "row accepted" true (Nullspace.add_incidence tr [| 0; 2 |]);
  let n' = matrix_of ~nvars:4 tr in
  check_int "nullity drops by one" 1 (Matrix.cols n');
  (* The updated basis must be annihilated by all three rows. *)
  let rows3 = Array.append rows [| [| 0; 2 |] |] in
  checkf "R'·N' = 0" 0.0 (incidence_residual rows3 n');
  (* And have the same span dimension as a from-scratch basis. *)
  check_int "same nullity as recompute"
    (Matrix.cols (basis_of rows3 ~cols:4))
    (Matrix.cols n')

let test_update_dependent_row_noop () =
  let rows = [| [| 0; 1 |]; [| 2; 3 |] |] in
  let n = basis_of rows ~cols:5 in
  let tr = tracker_of rows ~cols:5 in
  (* the sum of the two rows *)
  check_bool "dependent row rejected" false
    (Nullspace.add_incidence tr [| 0; 1; 2; 3 |]);
  check_int "dependent row keeps nullity" (Matrix.cols n) (Nullspace.dim tr);
  check_bool "basis untouched" true
    (Dense.equal_approx ~tol:0.0 n (matrix_of ~nvars:5 tr))

let prop_update_equals_recompute =
  QCheck.Test.make
    ~name:"Algorithm 2 update ≡ from-scratch basis (nullity & annihilation)"
    ~count:80
    QCheck.(triple (Qgen.int_range 1 6) (Qgen.int_range 2 8) (int_range 0 1000))
    (fun (r, c, seed) ->
      let rng = Rng.create seed in
      let rows = random_incidence_rows rng ~rows:(r + 1) ~cols:c 0.4 in
      let tr = tracker_of (Array.sub rows 0 r) ~cols:c in
      ignore (Nullspace.add_incidence tr rows.(r));
      let n' = matrix_of ~nvars:c tr in
      Matrix.cols n' = Matrix.cols (basis_of rows ~cols:c)
      && incidence_residual rows n' < 1e-7)

let prop_rank_nullity =
  QCheck.Test.make ~name:"rank + nullity = columns" ~count:80
    QCheck.(
      triple (Qgen.int_range 1 10) (Qgen.int_range 1 10) (int_range 0 1000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 424242) in
      let rows = random_incidence_rows rng ~rows:r ~cols:c 0.35 in
      Gauss.rank ~cols:c (Gauss.of_incidence ~cols:c rows)
      + Matrix.cols (basis_of rows ~cols:c)
      = c)

let prop_basis_annihilated =
  QCheck.Test.make ~name:"R · basis(R) = 0" ~count:80
    QCheck.(
      triple (Qgen.int_range 1 8) (Qgen.int_range 1 10) (int_range 0 1000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 777) in
      let rows = random_incidence_rows rng ~rows:r ~cols:c 0.5 in
      incidence_residual rows (basis_of rows ~cols:c) < 1e-9)

(* ------------------------------------------------------------------ *)
(* SVD                                                                 *)
(* ------------------------------------------------------------------ *)

module Svd = Tomo_oracles.Svd

let test_svd_reconstruct () =
  let rng = Rng.create 31 in
  let a = random_matrix rng 7 4 in
  let t = Svd.decompose a in
  check_bool "U·Σ·Vᵀ = A" true
    (Dense.equal_approx ~tol:1e-8 a (Svd.reconstruct t));
  (* Descending singular values. *)
  let s = t.Svd.sigma in
  for i = 0 to Array.length s - 2 do
    if s.(i) < s.(i + 1) then Alcotest.fail "sigma not descending"
  done

let test_svd_orthogonality () =
  let rng = Rng.create 37 in
  let a = random_matrix rng 6 6 in
  let t = Svd.decompose a in
  let vtv = Dense.mul (Dense.transpose t.Svd.v) t.Svd.v in
  check_bool "VᵀV = I" true
    (Dense.equal_approx ~tol:1e-8 vtv (Matrix.identity 6));
  let utu = Dense.mul (Dense.transpose t.Svd.u) t.Svd.u in
  check_bool "UᵀU = I (full rank)" true
    (Dense.equal_approx ~tol:1e-8 utu (Matrix.identity 6))

let test_svd_rank_and_nullspace () =
  (* Rank-2 matrix built from two outer products. *)
  let rng = Rng.create 41 in
  let a = random_low_rank rng 6 5 2 in
  let t = Svd.decompose a in
  check_int "rank 2" 2 (Svd.rank t);
  let nsp = Svd.nullspace_basis t in
  check_int "nullity 3" 3 (Matrix.cols nsp);
  checkf "A·N = 0" 0.0 (Dense.max_abs (Dense.mul a nsp))

let test_svd_rejects_wide () =
  Alcotest.check_raises "wide matrices rejected"
    (Invalid_argument "Svd.decompose: need rows >= cols") (fun () ->
      ignore (Svd.decompose (Matrix.make 2 5 1.0)))

let test_svd_known_values () =
  (* diag(3, 2) has singular values 3 and 2; condition 1.5. *)
  let a = Dense.of_rows [| [| 3.; 0. |]; [| 0.; 2. |] |] in
  let t = Svd.decompose a in
  checkf "sigma0" 3.0 t.Svd.sigma.(0);
  checkf "sigma1" 2.0 t.Svd.sigma.(1);
  checkf "condition" 1.5 (Svd.condition t)

let prop_svd_agrees_with_gauss_rank =
  QCheck.Test.make ~name:"SVD rank = Gaussian-elimination rank" ~count:60
    QCheck.(
      triple (Qgen.int_range 1 8) (Qgen.int_range 1 8) (int_range 0 5_000))
    (fun (m, n, seed) ->
      let m = max m n in
      (* ensure rows >= cols *)
      let rng = Rng.create (seed + 9_000) in
      let a =
        Matrix.init m n (fun _ _ -> if Rng.bool rng ~p:0.4 then 1.0 else 0.0)
      in
      Svd.rank (Svd.decompose a) = rank a)

let prop_svd_nullspace_annihilated =
  QCheck.Test.make ~name:"A · svd-nullspace = 0" ~count:60
    QCheck.(pair (Qgen.int_range 2 8) (int_range 0 5_000))
    (fun (n, seed) ->
      let rng = Rng.create (seed + 11_000) in
      let a = random_low_rank rng (n + 2) n (max 1 (n / 2)) in
      let t = Svd.decompose a in
      let nsp = Svd.nullspace_basis t in
      Matrix.cols nsp = 0 || Dense.max_abs (Dense.mul a nsp) < 1e-7)

(* ------------------------------------------------------------------ *)
(* CGLS                                                                *)
(* ------------------------------------------------------------------ *)

module Cgls = Tomo_linalg.Cgls

(* The pools solve incidence systems: every row a set of variables with
   coefficient 1. *)
let cgls_incidence ~n_vars rows b = Cgls.solve ~cols:n_vars rows b

let test_cgls_exact () =
  (* x0 + x1 = 3; x0 = 1 — consistent square system over incidence
     rows. *)
  let x = cgls_incidence ~n_vars:2 [| [| 0; 1 |]; [| 0 |] |] [| 3.; 1. |] in
  checkf "x0" 1.0 x.(0);
  checkf "x1" 2.0 x.(1)

let test_cgls_min_norm () =
  (* Single equation x0 + x1 = 2: minimizers form a line; CGLS from 0
     returns the minimum-norm point (1,1). *)
  let x = cgls_incidence ~n_vars:2 [| [| 0; 1 |] |] [| 2.0 |] in
  checkf "x0 = 1" 1.0 x.(0);
  checkf "x1 = 1" 1.0 x.(1)

let test_cgls_overdetermined_mean () =
  (* Three copies of x = b_i: least squares = mean. *)
  let x =
    cgls_incidence ~n_vars:1 [| [| 0 |]; [| 0 |]; [| 0 |] |]
      [| 1.0; 2.0; 6.0 |]
  in
  checkf "mean" 3.0 x.(0)

let test_cgls_validation () =
  Alcotest.check_raises "bad index"
    (Invalid_argument "Sparse.incidence_row: index out of range") (fun () ->
      ignore (cgls_incidence ~n_vars:1 [| [| 1 |] |] [| 1.0 |]));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Sparse.incidence_row: index out of range") (fun () ->
      ignore (cgls_incidence ~n_vars:2 [| [| 1; -1 |] |] [| 1.0 |]));
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Sparse.incidence_row: duplicate index") (fun () ->
      ignore (cgls_incidence ~n_vars:3 [| [| 2; 0; 2 |] |] [| 1.0 |]));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Cgls.solve: size mismatch") (fun () ->
      ignore (cgls_incidence ~n_vars:1 [| [| 0 |] |] [||]));
  (* Unsorted rows are summed in ascending column order, so they solve
     bit-identically to their sorted form. *)
  let rows = [| [| 0; 1; 2 |]; [| 1; 2 |]; [| 0 |] |]
  and shuffled = [| [| 2; 0; 1 |]; [| 2; 1 |]; [| 0 |] |]
  and b = [| 0.3; 0.7; 1.1 |] in
  let bits x = Array.map Int64.bits_of_float x in
  check_bool "unsorted == sorted (bitwise)" true
    (bits (cgls_incidence ~n_vars:3 rows b)
    = bits (cgls_incidence ~n_vars:3 shuffled b));
  check_bool "caller's row left unsorted" true (shuffled.(0) = [| 2; 0; 1 |])

let prop_cgls_matches_qr_least_squares =
  QCheck.Test.make ~name:"CGLS matches QR least squares on incidence rows"
    ~count:60
    QCheck.(
      triple (Qgen.int_range 1 10) (Qgen.int_range 1 8) (int_range 0 5_000))
    (fun (m, n, seed) ->
      let rng = Rng.create (seed + 13_000) in
      let rows =
        Array.init m (fun _ ->
            let r = ref [] in
            for j = n - 1 downto 0 do
              if Rng.bool rng ~p:0.5 then r := j :: !r
            done;
            Array.of_list !r)
      in
      let b = Array.init m (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.) in
      let x = cgls_incidence ~n_vars:n rows b in
      let a =
        Matrix.init m n (fun i j ->
            if Array.exists (fun k -> k = j) rows.(i) then 1.0 else 0.0)
      in
      let { Lstsq.solution = y; _ } = Lstsq.solve a b in
      (* Both minimize ‖Ax − b‖: residuals must agree even when the
         minimizers differ (rank-deficient systems). *)
      let resid v =
        let r = Dense.mul_vec a v in
        let acc = ref 0.0 in
        Array.iteri
          (fun i ri ->
            let d = ri -. b.(i) in
            acc := !acc +. (d *. d))
          r;
        !acc
      in
      abs_float (resid x -. resid y) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Sparse storage + sparse elimination                                 *)
(* ------------------------------------------------------------------ *)

module Sparse_rref = Tomo_oracles.Sparse_rref

(* Exact per-entry equality (the bit-identity contract; OCaml [=] on
   floats, so -0.0 = 0.0 — the one divergence the kernels allow). *)
let matrices_exact a b =
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

(* Bitwise per-entry equality: zero signs count. *)
let matrices_bits a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  &&
  let ok = ref true in
  for i = 0 to Matrix.rows a - 1 do
    for j = 0 to Matrix.cols a - 1 do
      if
        Int64.bits_of_float (Matrix.get a i j)
        <> Int64.bits_of_float (Matrix.get b i j)
      then ok := false
    done
  done;
  !ok

(* A sparse matrix read back entry by entry through [Sparse_rref.get]. *)
let to_dense a =
  Matrix.init (Sparse_rref.rows a) (Sparse_rref.cols a) (Sparse_rref.get a)

(* Sparse and boxed dense copies of the matrix whose row [i] holds
   [scales.(i)] at each column of [idxs.(i)]: incidence rows scaled in
   place, the way a sparse matrix gets entries other than 1. *)
let scaled_incidence ~cols idxs scales =
  let a = Sparse_rref.of_incidence ~rows:(Array.length idxs) ~cols idxs in
  Array.iteri (Sparse_rref.scale_row a) scales;
  let d = Array.map (fun _ -> Array.make cols 0.0) idxs in
  Array.iteri
    (fun i row -> Array.iter (fun j -> d.(i).(j) <- scales.(i)) row)
    idxs;
  (a, d)

(* The sorted-merge elimination against the dense reference: the same
   rank and pivot columns, and every entry within [tol] (default 0:
   equal, with -0.0 = 0.0, the one divergence the two allow). *)
let rref_matches ?(tol = 0.0) a d =
  let s = Sparse_rref.rref a
  and o = Gauss.rref ~cols:(Sparse_rref.cols a) d in
  s.Sparse_rref.rank = o.Gauss.rank
  && s.Sparse_rref.pivot_cols = o.Gauss.pivot_cols
  && Dense.equal_approx ~tol
       (to_dense s.Sparse_rref.reduced)
       (Dense.of_rows o.Gauss.reduced)

let test_sparse_roundtrip () =
  let rng = Rng.create 51 in
  let idxs = random_incidence_rows rng ~rows:7 ~cols:9 0.3 in
  let scales = Array.init 7 (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.) in
  let a, d = scaled_incidence ~cols:9 idxs scales in
  let m = Dense.of_rows d in
  check_bool "round-trip" true (matrices_exact m (to_dense a));
  let expected_nnz =
    Array.fold_left (fun acc row -> acc + Array.length row) 0 idxs
  in
  check_int "nnz" expected_nnz (Sparse_rref.nnz a);
  checkf "density"
    (float_of_int expected_nnz /. 63.0)
    (Sparse_rref.density a);
  check_bool "copy is deep" true
    (let b = Sparse_rref.copy a in
     Sparse_rref.swap_rows b 0 1;
     matrices_exact m (to_dense a))

let test_sparse_of_incidence () =
  (* Unsorted indices are accepted and stored in column order. *)
  let a = Sparse_rref.of_incidence ~rows:2 ~cols:5 [| [| 3; 0; 2 |]; [||] |] in
  let expect =
    Dense.of_rows
      [| [| 1.; 0.; 1.; 1.; 0. |]; [| 0.; 0.; 0.; 0.; 0. |] |]
  in
  check_bool "incidence layout" true (matrices_exact expect (to_dense a));
  check_int "row 0 nnz" 3 (Sparse_rref.row_nnz a 0);
  check_int "row 1 nnz" 0 (Sparse_rref.row_nnz a 1);
  let sorted = [| 0; 2; 3 |] and unsorted = [| 3; 0; 2 |] in
  check_bool "ascending row returned as is" true
    (Sparse.incidence_row ~cols:5 sorted == sorted);
  check_bool "unsorted row sorted into a copy" true
    (Sparse.incidence_row ~cols:5 unsorted = sorted
    && unsorted = [| 3; 0; 2 |]);
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Sparse.incidence_row: duplicate index") (fun () ->
      ignore (Sparse_rref.of_incidence ~rows:1 ~cols:4 [| [| 1; 1 |] |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sparse.incidence_row: index out of range") (fun () ->
      ignore (Sparse_rref.of_incidence ~rows:1 ~cols:4 [| [| 4 |] |]))

let test_sparse_row_ops () =
  let a, _ =
    scaled_incidence ~cols:3
      [| [| 0; 2 |]; [| 1; 2 |]; [| 0; 1 |] |]
      [| 2.; 3.; 1. |]
  in
  Sparse_rref.swap_rows a 0 2;
  check_bool "swap" true
    (matrices_exact
       (Dense.of_rows
          [| [| 1.; 1.; 0. |]; [| 0.; 3.; 3. |]; [| 2.; 0.; 2. |] |])
       (to_dense a));
  Sparse_rref.scale_row a 1 2.0;
  checkf "scale" 6.0 (Sparse_rref.get a 1 1);
  Sparse_rref.div_row a 1 3.0;
  checkf "div" 2.0 (Sparse_rref.get a 1 1);
  (* dst ← dst − 2·src eliminates the (2,0) entry and fills (2,1). *)
  Sparse_rref.sub_scaled_row a ~dst:2 ~src:0 ~coeff:2.0;
  checkf "eliminated" 0.0 (Sparse_rref.get a 2 0);
  checkf "fill-in" (-2.0) (Sparse_rref.get a 2 1);
  check_int "cancelled entry dropped" 2 (Sparse_rref.row_nnz a 2);
  Sparse_rref.drop_col_entries a 1 ~from_row:1;
  checkf "dropped" 0.0 (Sparse_rref.get a 2 1);
  checkf "kept above from_row" 1.0 (Sparse_rref.get a 0 1)

let prop_sparse_rref_bit_identical_incidence =
  QCheck.Test.make
    ~name:"sparse rref ≡ dense rref on 0/1 incidence matrices (exact)"
    ~count:120
    QCheck.(
      triple (Qgen.int_range 1 18) (Qgen.int_range 1 24) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 17_000) in
      let idxs = random_incidence_rows rng ~rows:r ~cols:c 0.2 in
      rref_matches
        (Sparse_rref.of_incidence ~rows:r ~cols:c idxs)
        (Gauss.of_incidence ~cols:c idxs))

let prop_sparse_rref_matches_dense_random =
  QCheck.Test.make
    ~name:"sparse rref matches dense on dense-random controls (1e-9)"
    ~count:120
    QCheck.(
      triple (Qgen.int_range 1 12) (Qgen.int_range 1 12) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 19_000) in
      (* Half-dense rows with arbitrary per-row coefficients, unlike
         the 0/1 incidence rows the sparse kernel serves. *)
      let idxs = random_incidence_rows rng ~rows:r ~cols:c 0.5 in
      let scales = Array.init r (fun _ -> Rng.uniform rng ~lo:(-3.) ~hi:3.) in
      let a, d = scaled_incidence ~cols:c idxs scales in
      rref_matches ~tol:1e-9 a d)

let prop_sparse_nullspace_same_kernel =
  QCheck.Test.make
    ~name:"sparse Nullspace.basis spans the same kernel as dense"
    ~count:80
    QCheck.(
      triple (Qgen.int_range 1 10) (Qgen.int_range 2 14) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 23_000) in
      let rows = random_incidence_rows rng ~rows:r ~cols:c 0.25 in
      let nd = Gauss.basis ~cols:c (Gauss.of_incidence ~cols:c rows) in
      let ns = basis_of rows ~cols:c in
      let p = Matrix.cols ns in
      Array.for_all (fun row -> Array.length row = p) nd
      && (p = 0 || incidence_residual rows ns < 1e-9)
      && (p = 0
         ||
         (* Mutual expressibility: stacking the two bases adds no new
            directions, so each spans the other. *)
         let both =
           Array.init c (fun i ->
               Array.init (2 * p) (fun j ->
                   if j < p then nd.(i).(j) else Matrix.get ns i (j - p)))
         in
         Gauss.rank ~cols:(2 * p) both = p))

(* The paper-scale incidence fixture the bench times the seed
   elimination on: 520 equations over 400 variables, each a short block
   of consecutive variables (the shape Algorithm 1's selections produce
   once subsets are numbered in discovery order), about 2% dense. *)
let paper_fixture () =
  let nvars = 400 and nrows = 520 in
  let rng = Rng.create 11 in
  ( nrows,
    nvars,
    Array.init nrows (fun i ->
        let base = i * 7 mod (nvars - 8) in
        let cols = ref [] in
        for k = 7 downto 0 do
          if k = 0 || Rng.bool rng ~p:0.75 then cols := (base + k) :: !cols
        done;
        Array.of_list !cols) )

(* The sorted-merge elimination must reproduce the dense reference on
   the fixture: same rank, same pivot columns, every entry equal. *)
let test_sparse_rref_paper_fixture () =
  let nrows, nvars, idxs = paper_fixture () in
  let s =
    Sparse_rref.rref (Sparse_rref.of_incidence ~rows:nrows ~cols:nvars idxs)
  in
  let o = Gauss.rref ~cols:nvars (Gauss.of_incidence ~cols:nvars idxs) in
  check_int "reference rank" 378 o.Gauss.rank;
  check_int "rank" o.Gauss.rank s.Sparse_rref.rank;
  check_bool "pivot columns" true
    (o.Gauss.pivot_cols = s.Sparse_rref.pivot_cols);
  check_bool "every entry" true
    (matrices_exact (Dense.of_rows o.Gauss.reduced)
       (to_dense s.Sparse_rref.reduced))

(* ... and the seed elimination must reproduce the sorted-merge one on
   every basis entry, bit for bit, zero signs included. *)
let test_seed_paper_fixture () =
  let nrows, nvars, idxs = paper_fixture () in
  let tr = Nullspace.of_incidence ~rows:nrows ~cols:nvars idxs in
  let b = matrix_of ~nvars tr
  and o = Sparse_rref.basis ~tol:1e-8 ~rows:nrows ~cols:nvars idxs in
  check_int "nullity" 22 (Matrix.cols b);
  check_bool "every basis entry (bits)" true (matrices_bits b o);
  check_bool "witnesses exact" true (Nullspace.witness_defect tr = 0.0)

(* Edge cases pinning the sorted-merge elimination to the dense
   reference. *)

let test_gauss_edge_1x1 () =
  let a, d = scaled_incidence ~cols:1 [| [| 0 |] |] [| 5.0 |] in
  let one = Sparse_rref.rref a in
  check_int "1x1 rank" 1 one.Sparse_rref.rank;
  checkf "normalized pivot" 1.0 (Sparse_rref.get one.Sparse_rref.reduced 0 0);
  check_bool "pivot col" true (one.Sparse_rref.pivot_cols = [ 0 ]);
  check_bool "1x1 = reference" true (rref_matches a d);
  let z = Sparse_rref.of_incidence ~rows:1 ~cols:1 [| [||] |] in
  let zero = Sparse_rref.rref z in
  check_int "1x1 zero rank" 0 zero.Sparse_rref.rank;
  check_bool "no pivots" true (zero.Sparse_rref.pivot_cols = []);
  check_bool "1x1 zero = reference" true (rref_matches z [| [| 0.0 |] |])

let test_gauss_all_zero () =
  let rows = [| [||]; [||]; [||] |] in
  let s = Sparse_rref.rref (Sparse_rref.of_incidence ~rows:3 ~cols:4 rows) in
  check_int "zero rank (dense)" 0
    (Gauss.rank ~cols:4 (Gauss.of_incidence ~cols:4 rows));
  check_int "zero rank (sparse)" 0 s.Sparse_rref.rank;
  check_bool "reduced stays zero" true
    (matrices_exact (Matrix.make 3 4 0.0) (to_dense s.Sparse_rref.reduced));
  check_int "full nullity" 4 (Matrix.cols (basis_of rows ~cols:4))

let test_gauss_tolerance_scaling () =
  (* The rank tolerance is relative to the largest entry, so scaling a
     matrix by 1e8 must not change rank or pivot choice — on either
     elimination. *)
  let rng = Rng.create 61 in
  let idxs = random_incidence_rows rng ~rows:9 ~cols:12 0.3 in
  let a, d = scaled_incidence ~cols:12 idxs (Array.make 9 1.0) in
  let big, dbig = scaled_incidence ~cols:12 idxs (Array.make 9 1e8) in
  let o = Gauss.rref ~cols:12 d and obig = Gauss.rref ~cols:12 dbig in
  check_int "dense rank invariant" o.Gauss.rank obig.Gauss.rank;
  check_bool "dense pivots invariant" true
    (o.Gauss.pivot_cols = obig.Gauss.pivot_cols);
  let s = Sparse_rref.rref a and sbig = Sparse_rref.rref big in
  check_int "sparse rank invariant" s.Sparse_rref.rank
    sbig.Sparse_rref.rank;
  check_bool "sparse pivots invariant" true
    (s.Sparse_rref.pivot_cols = sbig.Sparse_rref.pivot_cols);
  check_int "dense = sparse" o.Gauss.rank s.Sparse_rref.rank;
  check_bool "scaled = reference" true (rref_matches big dbig)

(* ------------------------------------------------------------------ *)
(* Witness prefilter: the O(nnz) rejection must be invisible            *)
(* ------------------------------------------------------------------ *)

module Sgauss = Tomo_linalg.Sparse_gauss

let random_idxs rng n =
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if Rng.bool rng ~p:0.35 then acc := j :: !acc
  done;
  match !acc with [] -> [| Rng.int rng n |] | l -> Array.of_list l

(* Bitwise tracker equality: same basis entries and same maintained
   column weights. *)
let trackers_agree ~nvars a b =
  let ma = matrix_of ~nvars a and mb = matrix_of ~nvars b in
  matrices_exact ma mb
  &&
  let ok = ref true in
  for v = 0 to nvars - 1 do
    if Nullspace.row_weight a v <> Nullspace.row_weight b v then ok := false
  done;
  !ok

let prop_witness_parity_incidence =
  QCheck.Test.make
    ~name:"witness tracker ≡ exact tracker on random incidence streams"
    ~count:150
    QCheck.(
      triple (Qgen.int_range 1 14) (Qgen.int_range 1 50) (int_range 0 10_000))
    (fun (n, m, seed) ->
      let rng = Rng.create (seed + 31_000) in
      let wit = Nullspace.tracker ~witness_k:4 n in
      let exact = Nullspace.tracker ~witness_k:0 n in
      let ok =
        ref
          (Nullspace.witness_count wit = 4
          && Nullspace.witness_count exact = 0)
      in
      for _ = 1 to m do
        let idxs = random_idxs rng n in
        if Nullspace.add_incidence wit idxs
           <> Nullspace.add_incidence exact idxs
        then ok := false
      done;
      !ok && trackers_agree ~nvars:n wit exact)

let prop_select_independent_matches_tracker =
  QCheck.Test.make
    ~name:"select_independent ≡ incremental tracker accept/reject"
    ~count:150
    QCheck.(
      triple (Qgen.int_range 1 12) (Qgen.int_range 1 40) (int_range 0 10_000))
    (fun (n, m, seed) ->
      let rng = Rng.create (seed + 37_000) in
      let rows = Array.init m (fun _ -> random_idxs rng n) in
      let keep = Sgauss.select_independent ~tol:1e-8 ~cols:n rows in
      let tr = Nullspace.tracker ~witness_k:0 n in
      let keep' = Array.map (Nullspace.add_incidence tr) rows in
      keep = keep')

(* Adversarial near-tolerance rows: basis entries that put an incidence
   row's exact dot [r · N] at [±tol·(1±ε)], right at the exact test's
   accept boundary.  The witness dot of such a row is [(r · N) · g_c] —
   tolerance-scale, far above the witness threshold [tol·1e-4] — so the
   prefilter must hand every one of them to the exact path, which
   accepts exactly the rows past the boundary, and the two trackers
   must keep making identical decisions. *)
let test_witness_adversarial_near_tol () =
  let tol = 1e-8 and scales = [| 1.001; 0.999; -1.001; -0.999 |] in
  let ns = Array.length scales in
  let p = 2 * ns and nvars = 3 * ns in
  let rng = Rng.create 97 in
  (* Variable [i < ns] holds [tol·s_i] in column [i] and 0 elsewhere.
     Variables [ns + 2q] and [ns + 2q + 1] hold a random O(1) row [x]
     and [−x], except that column [ns + q] of the second holds
     [−x + tol·s_q]: the pair's incidence row dots to [tol·s_q] there
     and to exactly 0 in every other column. *)
  let basis = Array.init p (fun _ -> Array.make nvars 0.0) in
  Array.iteri (fun i s -> basis.(i).(i) <- tol *. s) scales;
  Array.iteri
    (fun q s ->
      let v = ns + (2 * q) in
      for k = 0 to p - 1 do
        let x =
          Rng.uniform rng ~lo:0.5 ~hi:1.5
          *. if Rng.bool rng ~p:0.5 then 1.0 else -1.0
        in
        basis.(k).(v) <- x;
        basis.(k).(v + 1) <- (if k = ns + q then -.x +. (tol *. s) else -.x)
      done)
    scales;
  let wit = Nullspace.of_columns ~tol ~witness_k:3 ~nvars basis in
  let exact = Nullspace.of_columns ~tol ~witness_k:0 ~nvars basis in
  let rows =
    Array.append
      (Array.init ns (fun i -> [| i |]))
      (Array.init ns (fun q -> [| ns + (2 * q); ns + (2 * q) + 1 |]))
  in
  Array.iteri
    (fun r idxs ->
      let a = Nullspace.add_incidence wit idxs in
      let b = Nullspace.add_incidence exact idxs in
      check_bool "near-tol decision parity" b a;
      check_bool "accepted iff past the boundary"
        (abs_float scales.(r mod ns) > 1.0)
        b)
    rows;
  check_bool "bases bitwise equal after adversarial stream" true
    (trackers_agree ~nvars wit exact)

(* Degenerate pool: every row after the first is the same incidence row.
   The witness must reject the whole tail in O(nnz) without ever
   touching the basis, leaving both trackers bitwise equal. *)
let test_witness_all_dependent_pool () =
  let n = 8 in
  let wit = Nullspace.tracker ~witness_k:2 n in
  let exact = Nullspace.tracker ~witness_k:0 n in
  let row = [| 0; 2; 5 |] in
  check_bool "first accepted (witness)" true (Nullspace.add_incidence wit row);
  check_bool "first accepted (exact)" true
    (Nullspace.add_incidence exact row);
  for _ = 1 to 100 do
    check_bool "duplicate rejected (witness)" false
      (Nullspace.add_incidence wit row);
    check_bool "duplicate rejected (exact)" false
      (Nullspace.add_incidence exact row)
  done;
  check_bool "bases bitwise equal" true (trackers_agree ~nvars:n wit exact);
  check_bool "witness invariant tight after rejects" true
    (Nullspace.witness_defect wit < 1e-9)

(* Long interleaving of accepts and rejects: the in-place witness
   updates must keep [u_c = N·g_c] to rounding noise. *)
let test_witness_defect_after_interleaving () =
  let n = 30 in
  let rng = Rng.create 211 in
  let wit = Nullspace.tracker ~witness_k:4 n in
  let exact = Nullspace.tracker ~witness_k:0 n in
  for _ = 1 to 300 do
    let idxs = random_idxs rng n in
    check_bool "interleaved decision parity"
      (Nullspace.add_incidence exact idxs)
      (Nullspace.add_incidence wit idxs)
  done;
  check_bool "bases bitwise equal" true (trackers_agree ~nvars:n wit exact);
  check_bool "witness defect below 1e-6" true
    (Nullspace.witness_defect wit < 1e-6)

(* Trackers keep two witnesses unless built with [?witness_k], which
   sets the count per tracker (clamped to 0..16); 0 runs the exact
   dependence test alone. *)
let test_witness_default_knob () =
  check_int "default k = 2" 2 (Nullspace.witness_count (Nullspace.tracker 5));
  check_int "k=0 disables" 0
    (Nullspace.witness_count (Nullspace.tracker ~witness_k:0 5));
  check_int "k=3 maintains 3 witnesses" 3
    (Nullspace.witness_count (Nullspace.tracker ~witness_k:3 5));
  check_int "clamped to 16" 16
    (Nullspace.witness_count (Nullspace.tracker ~witness_k:99 5));
  check_int "of_incidence default" 2
    (Nullspace.witness_count
       (Nullspace.of_incidence ~rows:1 ~cols:4 [| [| 0; 1 |] |]));
  check_int "of_columns default" 2
    (Nullspace.witness_count
       (Nullspace.of_columns ~nvars:2 [| [| 1.0; 0.0 |] |]))

(* ------------------------------------------------------------------ *)
(* Sparse Cholesky minimum-norm solve                                  *)
(* ------------------------------------------------------------------ *)

module Sparse_chol = Tomo_linalg.Sparse_chol

let residual_inf ~rows ~b x =
  let worst = ref 0.0 in
  Array.iteri
    (fun i r ->
      let s = Array.fold_left (fun acc j -> acc +. x.(j)) 0.0 r in
      worst := Float.max !worst (abs_float (s -. b.(i))))
    rows;
  !worst

let all_finite = Array.for_all Float.is_finite

(* n = 0: every link certified good leaves no unknowns and no rows. *)
let test_chol_empty () =
  let f = Sparse_chol.factor ~cols:0 [||] in
  check_int "nothing dropped" 0 (Sparse_chol.dropped f);
  check_int "empty solution" 0 (Array.length (Sparse_chol.solve f [||]));
  let f = Sparse_chol.factor ~cols:4 [||] in
  check_bool "no equations: zero solution" true
    (Sparse_chol.solve f [||] = [| 0.0; 0.0; 0.0; 0.0 |])

let test_chol_single_row () =
  let rows = [| [| 0; 2 |] |] in
  let f = Sparse_chol.factor ~cols:3 rows in
  let x = Sparse_chol.solve f [| 4.0 |] in
  (* min ‖x‖ subject to x0 + x2 = 4 *)
  checkf "x0" 2.0 x.(0);
  checkf "x1" 0.0 x.(1);
  checkf "x2" 2.0 x.(2);
  check_int "L holds the diagonal only" 1 (Sparse_chol.l_nnz f);
  checkf "pivot ratio" 1.0 (Sparse_chol.pivot_ratio f)

(* A path that was never good: its all-good count is 0, and the smoothed
   log-frequency log((0 + 0.5) / (T + 1)) is finite, so the row solves
   like any other. *)
let test_chol_always_bad_path () =
  let rows = [| [| 0 |]; [| 0; 1 |]; [| 1; 2 |] |] in
  let always_bad = log (0.5 /. 101.0) in
  let b = [| log 0.9; always_bad; log 0.7 |] in
  let f = Sparse_chol.factor ~cols:3 rows in
  let x = Sparse_chol.solve f b in
  check_bool "finite" true (all_finite x);
  check_bool "solves every row" true (residual_inf ~rows ~b x <= 1e-12)

(* A duplicated row and a row that is the sum of two others: each pivot
   collapses to rounding noise, the row is dropped and counted, and the
   consistent system is still solved exactly — no NaN, no exception. *)
let test_chol_dependent_rows () =
  let rows = [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 1 |] |] in
  let f = Sparse_chol.factor ~cols:3 rows in
  check_int "duplicate dropped" 1 (Sparse_chol.dropped f);
  let b = [| 1.0; 2.0; 1.0 |] in
  let x = Sparse_chol.solve f b in
  check_bool "finite" true (all_finite x);
  check_bool "consistent system solved" true (residual_inf ~rows ~b x <= 1e-12);
  (* Inconsistent right-hand side on the dropped copy: still finite. *)
  check_bool "inconsistent copy stays finite" true
    (all_finite (Sparse_chol.solve f [| 1.0; 2.0; 5.0 |]));
  let rows = [| [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 2 |] |] in
  let f = Sparse_chol.factor ~cols:3 rows in
  check_int "sum row dropped" 1 (Sparse_chol.dropped f);
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_bool "sum system solved" true
    (residual_inf ~rows ~b (Sparse_chol.solve f b) <= 1e-12);
  let f = Sparse_chol.factor ~cols:2 [| [| 0 |]; [||] |] in
  check_int "empty row dropped" 1 (Sparse_chol.dropped f);
  check_bool "empty row stays finite" true
    (all_finite (Sparse_chol.solve f [| 1.0; 3.0 |]))

let test_chol_validation () =
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Sparse_chol.factor: variable index out of range")
    (fun () -> ignore (Sparse_chol.factor ~cols:2 [| [| 2 |] |]));
  let f = Sparse_chol.factor ~cols:2 [| [| 0; 1 |] |] in
  Alcotest.check_raises "rhs size"
    (Invalid_argument "Sparse_chol.solve: size mismatch") (fun () ->
      ignore (Sparse_chol.solve f [| 1.0; 2.0 |]))

let bits_equal x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x y

(* A factor's bytes: every field, each float by its bits, so equal bytes
   mean the same order, pattern and values, -0.0 and nan included.
   Polymorphic equality would take -0.0 for +0.0 and fail on any nan. *)
let factor_bytes f = Marshal.to_string f [ Marshal.No_sharing ]

(* Random incidence systems cut down to their greedy independent rows —
   the shape Algorithm 1 hands over. *)
let independent_system rng ~n ~m =
  let rows = Array.init m (fun _ -> random_idxs rng n) in
  let keep = Sgauss.select_independent ~tol:1e-8 ~cols:n rows in
  let kept = List.filteri (fun i _ -> keep.(i)) (Array.to_list rows) in
  Array.of_list kept

(* What every factor must give: the minimum-norm solution (A·x = b,
   x ⟂ null(A)), equal to CGLS's, and a factor and solution that are
   bitwise the same when the same rows are factored again. *)
let chol_properties_hold ~n rows b =
  let f = Sparse_chol.factor ~cols:n rows in
  let x = Sparse_chol.solve f b in
  let nb = basis_of rows ~cols:n in
  let ntx = ref 0.0 in
  for c = 0 to Matrix.cols nb - 1 do
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. (Matrix.get nb i c *. x.(i))
    done;
    ntx := Float.max !ntx (abs_float !s)
  done;
  let cg = cgls_incidence ~n_vars:n rows b in
  let f' = Sparse_chol.factor ~cols:n rows in
  Sparse_chol.dropped f = 0
  && residual_inf ~rows ~b x <= 1e-9
  && !ntx <= 1e-9
  && Array.for_all2 (fun u v -> abs_float (u -. v) <= 1e-7) x cg
  && factor_bytes f = factor_bytes f'
  && bits_equal x (Sparse_chol.solve f' b)

let prop_chol_min_norm =
  QCheck.Test.make
    ~name:"Sparse_chol: A·x = b, x ⟂ null(A), x ≈ CGLS, factor deterministic"
    ~count:150
    QCheck.(
      triple (Qgen.int_range 1 16) (Qgen.int_range 1 40) (int_range 0 10_000))
    (fun (n, m, seed) ->
      let rng = Rng.create (seed + 41_000) in
      let rows = independent_system rng ~n ~m in
      let b =
        Array.init (Array.length rows) (fun _ ->
            Rng.uniform rng ~lo:(-4.) ~hi:0.)
      in
      chol_properties_hold ~n rows b)

(* Incidence systems with [h] planted hubs, the last [h] variables, each
   in about half the rows, so every hub is above the dense-column rule
   (a column in at least 2·√m of the m rows).  Besides rows of one to
   three other variables plus hubs, a few rows repeat an earlier row's
   other variables with different hubs, and a few hold hubs only: both
   leave rows dependent once the hubs are split out, so the factor
   modifies their pivots.  Cut down to the greedy independent rows, as
   Algorithm 1 hands them over. *)
let hub_system rng ~n ~m ~h =
  let hubs () =
    List.filter
      (fun _ -> Rng.bool rng ~p:0.5)
      (List.init h (fun k -> n - h + k))
  in
  let rest () =
    List.sort_uniq compare
      (List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng (n - h)))
  in
  let base = Array.init m (fun _ -> (rest (), hubs ())) in
  let twins =
    List.init (1 + (m / 8)) (fun _ ->
        let r, hs = base.(Rng.int rng m) in
        let flip = n - h + Rng.int rng h in
        ( r,
          if List.mem flip hs then List.filter (( <> ) flip) hs
          else List.sort compare (flip :: hs) ))
  in
  let hub_only =
    List.init 2 (fun _ -> ([], [ n - h + Rng.int rng h ]))
  in
  let rows =
    Array.of_list
      (List.filter_map
         (fun (r, hs) ->
           match r @ hs with [] -> None | l -> Some (Array.of_list l))
         (Array.to_list base @ twins @ hub_only))
  in
  let keep = Sgauss.select_independent ~tol:1e-8 ~cols:n rows in
  Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list rows))

let prop_chol_hubs =
  QCheck.Test.make
    ~name:"Sparse_chol, hubs split out: A·x = b, x ⟂ null(A), x ≈ CGLS"
    ~count:150
    QCheck.(
      quad (Qgen.int_range 1 3) (Qgen.int_range 4 30) (Qgen.int_range 16 70)
        (int_range 0 10_000))
    (fun (h, n, m, seed) ->
      let rng = Rng.create (seed + 43_000) in
      let rows = hub_system rng ~n:(n + h) ~m ~h in
      let b =
        Array.init (Array.length rows) (fun _ ->
            Rng.uniform rng ~lo:(-4.) ~hi:0.)
      in
      chol_properties_hold ~n:(n + h) rows b)

(* The hub systems really take the split, and some of them modify
   pivots: a property that never reached the Woodbury core would prove
   nothing about it. *)
let test_chol_hub_census () =
  let modified = Tomo_obs.Metrics.counter "sparse_chol_modified_pivots" in
  let was = Tomo_obs.Metrics.enabled () in
  Tomo_obs.Metrics.set_enabled true;
  let before = Tomo_obs.Metrics.counter_value modified in
  let split = ref 0 in
  for seed = 0 to 39 do
    let rng = Rng.create (seed + 44_000) in
    let rows = hub_system rng ~n:24 ~m:48 ~h:(1 + (seed mod 3)) in
    let f = Sparse_chol.factor ~cols:24 rows in
    if Sparse_chol.dense_cols f > 0 then incr split;
    check_int "nothing dropped" 0 (Sparse_chol.dropped f)
  done;
  let mods = Tomo_obs.Metrics.counter_value modified - before in
  Tomo_obs.Metrics.set_enabled was;
  check_bool "most systems split" true (!split >= 30);
  check_bool "modified pivots occur" true (mods > 0)

(* A duplicated row that holds a hub makes A·Aᵀ singular, and so the
   Woodbury core: the factor falls back to the whole rows, which drops
   and counts the copy, exactly as without the split.  In the first
   system each row has a variable of its own, so without the hubs no
   row is dependent and only the core can see the copy; in the second,
   the copy leaves more dependent rows than there are hubs. *)
let test_chol_hub_duplicate_dropped () =
  let own =
    Array.init 30 (fun i ->
        Array.of_list
          ([ i; 30 + (i mod 7) ]
          @ (if i mod 2 = 0 then [ 58 ] else [])
          @ if i mod 3 <> 0 then [ 59 ] else []))
  in
  let rng = Rng.create 45_001 in
  let random = hub_system rng ~n:20 ~m:40 ~h:2 in
  List.iter
    (fun (cols, rows) ->
      let independent = Sparse_chol.factor ~cols rows in
      check_int "the independent rows split out both hubs" 2
        (Sparse_chol.dense_cols independent);
      let dup =
        match
          List.find_opt (fun r -> Array.mem (cols - 2) r) (Array.to_list rows)
        with
        | Some r -> r
        | None -> Alcotest.fail "no row holds the hub"
      in
      let rows = Array.append rows [| Array.copy dup |] in
      let f = Sparse_chol.factor ~cols rows in
      check_int "copy dropped" 1 (Sparse_chol.dropped f);
      check_int "no split on a singular system" 0 (Sparse_chol.dense_cols f);
      let x0 =
        Array.init cols (fun j -> -0.1 *. float_of_int (1 + (j mod 7)))
      in
      let b =
        Array.map
          (fun r -> Array.fold_left (fun acc j -> acc +. x0.(j)) 0.0 r)
          rows
      in
      let x = Sparse_chol.solve f b in
      check_bool "finite" true (all_finite x);
      check_bool "consistent system solved" true
        (residual_inf ~rows ~b x <= 1e-9))
    [ (60, own); (20, random) ]

(* ---- The factor against its reference, bit for bit ---------------- *)

module Sparse_chol_ref = Tomo_oracles.Sparse_chol_ref

(* The factor and a solve, each equal to the reference's to the bit.
   The two factor records have one layout, so their bytes compare every
   field: the order, L's pattern and values, the diagonal, the
   correction (V, the core and its pivots), the dropped rows and the
   pivot ratio. *)
let chol_matches_reference ~cols rows b =
  let f = Sparse_chol.factor ~cols rows
  and g = Sparse_chol_ref.factor ~cols rows in
  factor_bytes f = factor_bytes g
  && bits_equal (Sparse_chol.solve f b) (Sparse_chol_ref.solve g b)

(* Incidence systems of every shape the factor branches on: [h] hubs
   (the last [h] variables, each in about half the rows) beside one to
   four other variables per row, and among the rows copies of earlier
   rows, twins that differ from an earlier row in one hub, rows of hubs
   only and empty rows.  Left as drawn (odd seeds), rows are dropped and
   the split falls back; cut down to their greedy independent rows (even
   seeds), as Algorithm 1 hands them over, the split holds and modifies
   the pivots of the rows that leaving the hubs out makes dependent.
   Past 252 rows each adjacency and degree-bucket row takes more than
   four words, and the scratch lands on the major heap. *)
let mixed_system rng ~n ~m ~h =
  let hubs () =
    List.filter
      (fun _ -> Rng.bool rng ~p:0.5)
      (List.init h (fun k -> n - h + k))
  in
  let others () = List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng (n - h)) in
  let rows = Array.make m [||] in
  for i = 0 to m - 1 do
    let row =
      match Rng.int rng 20 with
      | 0 when i > 0 -> Array.to_list rows.(Rng.int rng i)
      | 1 when i > 0 && h > 0 ->
          let flip = n - h + Rng.int rng h in
          let r = Array.to_list rows.(Rng.int rng i) in
          if List.mem flip r then List.filter (( <> ) flip) r else flip :: r
      | 2 when h > 0 -> [ n - h + Rng.int rng h ]
      | 3 -> []
      | _ -> others () @ hubs ()
    in
    rows.(i) <- Array.of_list (List.sort_uniq compare row)
  done;
  rows

let mixed_case (h, m, n, seed) =
  let rng = Rng.create (seed + 46_000) in
  let cols = n + h in
  let rows = mixed_system rng ~n:cols ~m ~h in
  let rows =
    if seed mod 2 = 1 then rows
    else
      let keep = Sgauss.select_independent ~tol:1e-8 ~cols rows in
      Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list rows))
  in
  ( cols,
    rows,
    Array.map (fun _ -> Rng.uniform rng ~lo:(-4.) ~hi:0.) rows )

let prop_chol_matches_reference =
  QCheck.Test.make
    ~name:"Sparse_chol ≡ reference factor (bits): hubs, dependent rows, m > 256"
    ~count:300
    QCheck.(
      quad (int_range 0 4) (Qgen.int_range 1 420) (Qgen.int_range 1 480)
        (int_range 0 10_000))
    (fun case ->
      let cols, rows, b = mixed_case case in
      chol_matches_reference ~cols rows b)

(* The serve workloads' own shapes: each recorded selection splits out
   its hubs and modifies pivots, and [steady]'s and [sparse]'s run past
   four words a row. *)
let test_chol_recorded_selections () =
  List.iter
    (fun (name, (cols, text)) ->
      let rows =
        String.split_on_char '\n' (String.trim text)
        |> List.map (fun line ->
               String.split_on_char ' ' line
               |> List.filter (( <> ) "")
               |> List.map int_of_string |> Array.of_list)
        |> Array.of_list
      in
      let rng = Rng.create 47_000 in
      let b = Array.map (fun _ -> Rng.uniform rng ~lo:(-4.) ~hi:0.) rows in
      check_bool (name ^ ": factor ≡ reference") true
        (chol_matches_reference ~cols rows b);
      check_bool (name ^ ": hubs split out") true
        (Sparse_chol.dense_cols (Sparse_chol.factor ~cols rows) > 0))
    Chol_selections.
      [ ("churn", churn); ("steady", steady); ("sparse", sparse) ]

(* The mixed systems reach every branch the property means to cover: a
   property that never split, modified a pivot, fell back or ran past
   four words a row would prove nothing about those paths. *)
let test_chol_reference_census () =
  let modified = Tomo_obs.Metrics.counter "sparse_chol_modified_pivots" in
  let was = Tomo_obs.Metrics.enabled () in
  Tomo_obs.Metrics.set_enabled true;
  let before = Tomo_obs.Metrics.counter_value modified in
  let split = ref 0 and fallback = ref 0 and dropped = ref 0 and wide = ref 0 in
  for seed = 0 to 59 do
    let case = (seed mod 5, 1 + (seed * 7 mod 420), 1 + (seed * 13 mod 480), seed) in
    let cols, rows, b = mixed_case case in
    check_bool "factor ≡ reference" true (chol_matches_reference ~cols rows b);
    let f = Sparse_chol.factor ~cols rows in
    let m = Array.length rows in
    let counts = Array.make cols 0 in
    Array.iter (Array.iter (fun j -> counts.(j) <- counts.(j) + 1)) rows;
    let has_hub = Array.exists (fun c -> c * c >= 4 * m) counts in
    if Sparse_chol.dense_cols f > 0 then incr split
    else if has_hub then incr fallback;
    if Sparse_chol.dropped f > 0 then incr dropped;
    if m > 252 then incr wide
  done;
  let mods = Tomo_obs.Metrics.counter_value modified - before in
  Tomo_obs.Metrics.set_enabled was;
  check_bool "some systems split" true (!split > 0);
  check_bool "some splits fall back" true (!fallback > 0);
  check_bool "some rows dropped" true (!dropped > 0);
  check_bool "some systems wider than four words a row" true (!wide > 0);
  check_bool "modified pivots occur" true (mods > 0)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "linalg"
    [
      ( "matrix",
        [
          Alcotest.test_case "basics" `Quick test_matrix_basic;
          Alcotest.test_case "multiplication" `Quick test_matrix_mul;
          Alcotest.test_case "matrix-vector" `Quick test_matrix_vec;
          Alcotest.test_case "transpose" `Quick test_matrix_transpose;
          Alcotest.test_case "swap columns" `Quick test_matrix_swap;
          Alcotest.test_case "degenerate shapes" `Quick
            test_matrix_degenerate_shapes;
          Alcotest.test_case "of_rows rejections" `Quick
            test_matrix_of_rows_rejections;
          qc prop_transpose_involution;
          qc prop_mul_identity;
        ] );
      ( "gauss",
        [
          Alcotest.test_case "rank" `Quick test_gauss_rank;
          Alcotest.test_case "solve" `Quick test_gauss_solve;
          Alcotest.test_case "singular detection" `Quick test_gauss_singular;
          Alcotest.test_case "inverse" `Quick test_gauss_inverse;
          qc prop_rank_product_bound;
        ] );
      ( "qr",
        [
          Alcotest.test_case "reconstruction" `Quick test_qr_reconstruct;
          Alcotest.test_case "orthogonality" `Quick test_qr_orthogonal;
          Alcotest.test_case "lstsq consistent" `Quick test_lstsq_exact;
          Alcotest.test_case "lstsq overdetermined" `Quick
            test_lstsq_overdetermined;
          Alcotest.test_case "lstsq rank-deficient" `Quick
            test_lstsq_rank_deficient;
          qc prop_lstsq_residual_orthogonal;
        ] );
      ( "nullspace",
        [
          Alcotest.test_case "basic basis" `Quick test_nullspace_basic;
          Alcotest.test_case "trivial null space" `Quick
            test_nullspace_trivial;
          Alcotest.test_case "identifiability test" `Quick test_determined;
          Alcotest.test_case "rank-reduction test" `Quick test_reduces_rank;
          Alcotest.test_case "Algorithm 2 update" `Quick
            test_update_matches_recompute;
          Alcotest.test_case "Algorithm 2 dependent row" `Quick
            test_update_dependent_row_noop;
          qc prop_update_equals_recompute;
          qc prop_rank_nullity;
          qc prop_basis_annihilated;
          qc prop_determined_matches_oracle;
        ] );
      ( "svd",
        [
          Alcotest.test_case "reconstruction" `Quick test_svd_reconstruct;
          Alcotest.test_case "orthogonality" `Quick test_svd_orthogonality;
          Alcotest.test_case "rank and null space" `Quick
            test_svd_rank_and_nullspace;
          Alcotest.test_case "wide matrices rejected" `Quick
            test_svd_rejects_wide;
          Alcotest.test_case "known singular values" `Quick
            test_svd_known_values;
          qc prop_svd_agrees_with_gauss_rank;
          qc prop_svd_nullspace_annihilated;
        ] );
      ( "cgls",
        [
          Alcotest.test_case "consistent system" `Quick test_cgls_exact;
          Alcotest.test_case "minimum norm" `Quick test_cgls_min_norm;
          Alcotest.test_case "overdetermined mean" `Quick
            test_cgls_overdetermined_mean;
          Alcotest.test_case "validation" `Quick test_cgls_validation;
          qc prop_cgls_matches_qr_least_squares;
        ] );
      ( "gauss-edge",
        [
          Alcotest.test_case "1x1 matrices" `Quick test_gauss_edge_1x1;
          Alcotest.test_case "all-zero matrix" `Quick test_gauss_all_zero;
          Alcotest.test_case "tolerance scales with magnitude" `Quick
            test_gauss_tolerance_scaling;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "dense round-trip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "of_incidence" `Quick test_sparse_of_incidence;
          Alcotest.test_case "row operations" `Quick test_sparse_row_ops;
          qc prop_sparse_rref_bit_identical_incidence;
          qc prop_sparse_rref_matches_dense_random;
          qc prop_sparse_nullspace_same_kernel;
          Alcotest.test_case "paper-scale fixture ≡ dense reference" `Quick
            test_sparse_rref_paper_fixture;
          Alcotest.test_case
            "paper-scale fixture: seed elimination ≡ sorted-merge (bits)"
            `Quick test_seed_paper_fixture;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "no unknowns" `Quick test_chol_empty;
          Alcotest.test_case "single row" `Quick test_chol_single_row;
          Alcotest.test_case "always-bad path" `Quick
            test_chol_always_bad_path;
          Alcotest.test_case "dependent rows dropped" `Quick
            test_chol_dependent_rows;
          Alcotest.test_case "validation" `Quick test_chol_validation;
          qc prop_chol_min_norm;
          qc prop_chol_hubs;
          Alcotest.test_case "hub census" `Quick test_chol_hub_census;
          Alcotest.test_case "duplicated hub row dropped" `Quick
            test_chol_hub_duplicate_dropped;
          qc prop_chol_matches_reference;
          Alcotest.test_case "reference census" `Quick
            test_chol_reference_census;
          Alcotest.test_case "recorded serve selections ≡ reference (bits)"
            `Quick test_chol_recorded_selections;
        ] );
      ( "witness",
        [
          qc prop_witness_parity_incidence;
          qc prop_select_independent_matches_tracker;
          Alcotest.test_case "adversarial near-tolerance rows" `Quick
            test_witness_adversarial_near_tol;
          Alcotest.test_case "degenerate all-dependent pool" `Quick
            test_witness_all_dependent_pool;
          Alcotest.test_case "defect after long interleaving" `Quick
            test_witness_defect_after_interleaving;
          Alcotest.test_case "default-k knob" `Quick
            test_witness_default_knob;
        ] );
    ]
