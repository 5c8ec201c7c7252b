(* Tests for the dense linear-algebra substrate, including the paper's
   Algorithm 2 (incremental null-space update). *)

module Matrix = Tomo_linalg.Matrix
module Gauss = Tomo_linalg.Gauss
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
  Matrix.mul a b

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
  let a = Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Matrix.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Matrix.mul a b in
  checkf "c00" 19.0 (Matrix.get c 0 0);
  checkf "c01" 22.0 (Matrix.get c 0 1);
  checkf "c10" 43.0 (Matrix.get c 1 0);
  checkf "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_vec () =
  let a = Matrix.of_rows [| [| 1.; 2.; 3. |]; [| 0.; 1.; 0. |] |] in
  let v = Matrix.mul_vec a [| 1.; 1.; 1. |] in
  checkf "mul_vec 0" 6.0 v.(0);
  checkf "mul_vec 1" 1.0 v.(1);
  let w = Matrix.vec_mul [| 1.; 2. |] a in
  checkf "vec_mul 0" 1.0 w.(0);
  checkf "vec_mul 1" 4.0 w.(1);
  checkf "vec_mul 2" 3.0 w.(2)

let test_matrix_transpose () =
  let a = Matrix.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Matrix.transpose a in
  check_int "t rows" 3 (Matrix.rows t);
  checkf "t(2,1)" 6.0 (Matrix.get t 2 1)

let test_matrix_drop_swap () =
  let a = Matrix.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  Matrix.swap_cols a 0 2;
  checkf "swapped" 3.0 (Matrix.get a 0 0);
  let d = Matrix.drop_col a 1 in
  check_int "dropped cols" 2 (Matrix.cols d);
  checkf "drop keeps order" 1.0 (Matrix.get d 0 1)

(* ---- Flat-storage edge cases ---- *)

let test_matrix_degenerate_shapes () =
  let z = Matrix.make 0 5 0.0 in
  check_int "0-row rows" 0 (Matrix.rows z);
  check_int "0-row cols" 5 (Matrix.cols z);
  check_bool "0-row to_rows" true (Matrix.to_rows z = [||]);
  let n = Matrix.make 3 0 0.0 in
  check_int "0-col rows" 3 (Matrix.rows n);
  check_bool "0-col row is empty" true (Matrix.row n 1 = [||]);
  checkf "0-col max_abs" 0.0 (Matrix.max_abs n);
  let one = Matrix.make 1 1 7.5 in
  checkf "1x1 get" 7.5 (Matrix.get one 0 0);
  let buf, off = Matrix.row_view one 0 in
  checkf "1x1 row view" 7.5 buf.(off);
  check_int "1x1 stride" 1 (Matrix.stride one)

let test_matrix_row_view_aliases () =
  let m = Matrix.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  (* A row view is the live buffer: writes through it are visible in the
     parent... *)
  let buf, off = Matrix.row_view m 1 in
  check_int "row base" off (Matrix.row_base m 1);
  buf.(off + 2) <- 99.0;
  checkf "write through view visible" 99.0 (Matrix.get m 1 2);
  check_bool "buffer is the storage" true (buf == Matrix.buffer m);
  (* ...whereas [row] / [to_rows] hand out copies. *)
  let r = Matrix.row m 1 in
  r.(0) <- -1.0;
  checkf "row copy does not alias" 10.0 (Matrix.get m 1 0);
  (Matrix.to_rows m).(0).(0) <- -1.0;
  checkf "to_rows does not alias" 0.0 (Matrix.get m 0 0)

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
    [ "matrix.ml:"; "empty row array"; "Matrix.make 0 c" ]
    (fun () -> Matrix.of_rows [||]);
  check_invalid_arg_with "ragged"
    [ "matrix.ml:"; "ragged rows"; "row 1 has 3 columns, row 0 has 2" ]
    (fun () -> Matrix.of_rows [| [| 1.; 2. |]; [| 1.; 2.; 3. |] |])

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:50
    QCheck.(pair (int_range 1 12) (int_range 1 12))
    (fun (r, c) ->
      let rng = Rng.create (r + (100 * c)) in
      let m = random_matrix rng r c in
      Matrix.equal_approx ~tol:0.0 m (Matrix.transpose (Matrix.transpose m)))

let prop_mul_identity =
  QCheck.Test.make ~name:"A·I = A and I·A = A" ~count:50
    QCheck.(pair (int_range 1 10) (int_range 1 10))
    (fun (r, c) ->
      let rng = Rng.create (r + (57 * c)) in
      let m = random_matrix rng r c in
      Matrix.equal_approx ~tol:1e-12 m (Matrix.mul m (Matrix.identity c))
      && Matrix.equal_approx ~tol:1e-12 m (Matrix.mul (Matrix.identity r) m))

(* ------------------------------------------------------------------ *)
(* Gauss                                                               *)
(* ------------------------------------------------------------------ *)

let test_gauss_rank () =
  let full = Matrix.of_rows [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  check_int "identity rank" 2 (Gauss.rank full);
  let deficient =
    Matrix.of_rows [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |]
  in
  check_int "rank-1 matrix" 1 (Gauss.rank deficient)

(* [rref] of the augmented matrix [A | B] for a square, nonsingular [A]
   reduces the left half to the identity, leaving [A⁻¹·B] on the right. *)
let augmented a b =
  let n = Matrix.rows a and k = Matrix.cols b in
  Matrix.init n (n + k) (fun i j ->
      if j < n then Matrix.get a i j else Matrix.get b i (j - n))

let right_half { Gauss.reduced; _ } n =
  Matrix.init n (Matrix.cols reduced - n) (fun i j ->
      Matrix.get reduced i (n + j))

let test_gauss_solve () =
  let a = Matrix.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let r = Gauss.rref (augmented a (Matrix.of_rows [| [| 5. |]; [| 10. |] |])) in
  check_bool "pivots in A" true (r.Gauss.pivot_cols = [ 0; 1 ]);
  let x = right_half r 2 in
  checkf "x0" 1.0 (Matrix.get x 0 0);
  checkf "x1" 3.0 (Matrix.get x 1 0)

let test_gauss_singular () =
  (* A singular A leaves a pivot in the right-hand column: the system
     [x0 + x1 = 1; 2x0 + 2x1 = 3] is inconsistent. *)
  let a = Matrix.of_rows [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  let r = Gauss.rref (augmented a (Matrix.of_rows [| [| 1. |]; [| 3. |] |])) in
  check_int "rank of A" 1 (Gauss.rank a);
  check_bool "pivot lands in the right-hand side" true
    (r.Gauss.pivot_cols = [ 0; 2 ])

let test_gauss_inverse () =
  let a = Matrix.of_rows [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = right_half (Gauss.rref (augmented a (Matrix.identity 2))) 2 in
  let prod = Matrix.mul a inv in
  check_bool "A·A⁻¹ = I" true
    (Matrix.equal_approx ~tol:1e-9 prod (Matrix.identity 2))

let prop_rank_product_bound =
  QCheck.Test.make ~name:"rank(AB) <= min(rank A, rank B) via low-rank build"
    ~count:50
    QCheck.(triple (int_range 2 10) (int_range 2 10) (int_range 1 4))
    (fun (r, c, k) ->
      let rng = Rng.create ((r * 1000) + (c * 10) + k) in
      let m = random_low_rank rng r c (min k (min r c)) in
      Gauss.rank m <= min k (min r c))

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
    (Matrix.equal_approx ~tol:1e-8 ap (Matrix.mul q r))

let test_qr_orthogonal () =
  let rng = Rng.create 23 in
  let a = random_matrix rng 5 5 in
  let t = Qr.decompose a in
  let q = Qr.q t in
  let qtq = Matrix.mul (Matrix.transpose q) q in
  check_bool "QᵀQ = I" true
    (Matrix.equal_approx ~tol:1e-8 qtq (Matrix.identity 5))

let test_lstsq_exact () =
  let a = Matrix.of_rows [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let b = [| 1.; 2.; 3. |] in
  let { Lstsq.solution; rank; residual_norm } = Lstsq.solve a b in
  check_int "rank" 2 rank;
  checkf "x0" 1.0 solution.(0);
  checkf "x1" 2.0 solution.(1);
  checkf "consistent system residual" 0.0 residual_norm

let test_lstsq_overdetermined () =
  (* Fit y = c over observations 1, 2, 3: least squares mean. *)
  let a = Matrix.of_rows [| [| 1. |]; [| 1. |]; [| 1. |] |] in
  let { Lstsq.solution; _ } = Lstsq.solve a [| 1.; 2.; 3. |] in
  checkf "mean fit" 2.0 solution.(0)

let test_lstsq_rank_deficient () =
  (* x0 + x1 = 2 twice: any (a, 2-a) minimizes; basic solution picks one
     and must reproduce the rhs. *)
  let a = Matrix.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let { Lstsq.solution; rank; residual_norm } = Lstsq.solve a [| 2.; 2. |] in
  check_int "rank 1" 1 rank;
  checkf "residual 0" 0.0 residual_norm;
  checkf "sum constraint" 2.0 (solution.(0) +. solution.(1))

let prop_lstsq_residual_orthogonal =
  QCheck.Test.make
    ~name:"least-squares residual orthogonal to column space" ~count:60
    QCheck.(pair (int_range 2 12) (int_range 1 8))
    (fun (m, n) ->
      let n = min n m in
      let rng = Rng.create ((m * 131) + n) in
      let a = random_matrix rng m n in
      let b = Array.init m (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.) in
      let { Lstsq.solution; _ } = Lstsq.solve a b in
      let r = Matrix.mul_vec a solution in
      let resid = Array.mapi (fun i ri -> ri -. b.(i)) r in
      let atr = Matrix.vec_mul resid a in
      Array.for_all (fun x -> abs_float x < 1e-6) atr)

(* ------------------------------------------------------------------ *)
(* Null space + Algorithm 2                                            *)
(* ------------------------------------------------------------------ *)

let test_nullspace_basic () =
  (* x + y + z = 0 has a 2-dimensional null space. *)
  let m = Matrix.of_rows [| [| 1.; 1.; 1. |] |] in
  let n = Nullspace.basis m in
  check_int "nullity" 2 (Matrix.cols n);
  let prod = Matrix.mul m n in
  checkf "R·N = 0" 0.0 (Matrix.max_abs prod)

let test_nullspace_trivial () =
  let m = Matrix.identity 3 in
  check_int "identity nullity" 0 (Nullspace.nullity m)

let test_in_row_space () =
  (* System x0 + x1 = b1, x0 = b2 identifies both x0 and x1; the system
     x0 + x1 alone identifies neither. *)
  let full = Matrix.of_rows [| [| 1.; 1. |]; [| 1.; 0. |] |] in
  let nfull = Nullspace.basis full in
  check_bool "x0 identifiable" true (Nullspace.in_row_space nfull 0);
  check_bool "x1 identifiable" true (Nullspace.in_row_space nfull 1);
  let partial = Matrix.of_rows [| [| 1.; 1. |] |] in
  let np = Nullspace.basis partial in
  check_bool "x0 not identifiable" false (Nullspace.in_row_space np 0);
  check_bool "x1 not identifiable" false (Nullspace.in_row_space np 1)

let test_reduces_rank () =
  let m = Matrix.of_rows [| [| 1.; 1.; 0. |] |] in
  let n = Nullspace.basis m in
  check_bool "dependent row does not reduce" false
    (Nullspace.reduces_rank n [| 2.; 2.; 0. |]);
  check_bool "independent row reduces" true
    (Nullspace.reduces_rank n [| 0.; 0.; 1. |])

let test_update_matches_recompute () =
  let m = Matrix.of_rows [| [| 1.; 1.; 0.; 0. |]; [| 0.; 0.; 1.; 1. |] |] in
  let n = Nullspace.basis m in
  check_int "initial nullity" 2 (Matrix.cols n);
  let r = [| 1.; 0.; 1.; 0. |] in
  let n' = Nullspace.update n r in
  check_int "nullity drops by one" 1 (Matrix.cols n');
  (* The updated basis must be annihilated by all three rows. *)
  let m3 =
    Matrix.of_rows
      [| [| 1.; 1.; 0.; 0. |]; [| 0.; 0.; 1.; 1. |]; [| 1.; 0.; 1.; 0. |] |]
  in
  checkf "R'·N' = 0" 0.0 (Matrix.max_abs (Matrix.mul m3 n'));
  (* And have the same span dimension as a from-scratch basis. *)
  check_int "same nullity as recompute" (Nullspace.nullity m3)
    (Matrix.cols n')

let test_update_dependent_row_noop () =
  let m = Matrix.of_rows [| [| 1.; 1.; 0. |]; [| 0.; 1.; 1. |] |] in
  let n = Nullspace.basis m in
  let sum_row = [| 1.; 2.; 1. |] in
  let n' = Nullspace.update n sum_row in
  check_int "dependent row keeps nullity" (Matrix.cols n) (Matrix.cols n')

let prop_update_equals_recompute =
  QCheck.Test.make
    ~name:"Algorithm 2 update ≡ from-scratch basis (nullity & annihilation)"
    ~count:80
    QCheck.(triple (int_range 1 6) (int_range 2 8) (int_range 0 1000))
    (fun (r, c, seed) ->
      let rng = Rng.create seed in
      (* Random 0/1 matrix to mimic incidence rows. *)
      let m =
        Matrix.init r c (fun _ _ -> if Rng.bool rng ~p:0.4 then 1.0 else 0.0)
      in
      let extra =
        Array.init c (fun _ -> if Rng.bool rng ~p:0.4 then 1.0 else 0.0)
      in
      let n = Nullspace.basis m in
      let n' = Nullspace.update n extra in
      let stacked =
        Matrix.init (r + 1) c (fun i j ->
            if i < r then Matrix.get m i j else extra.(j))
      in
      let expect = Nullspace.nullity stacked in
      Matrix.cols n' = expect
      && (Matrix.cols n' = 0
         || Matrix.max_abs (Matrix.mul stacked n') < 1e-7))

let prop_rank_nullity =
  QCheck.Test.make ~name:"rank + nullity = columns" ~count:80
    QCheck.(triple (int_range 1 10) (int_range 1 10) (int_range 0 1000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 424242) in
      let m =
        Matrix.init r c (fun _ _ -> if Rng.bool rng ~p:0.35 then 1.0 else 0.0)
      in
      Gauss.rank m + Nullspace.nullity m = c)

let prop_basis_annihilated =
  QCheck.Test.make ~name:"R · basis(R) = 0" ~count:80
    QCheck.(triple (int_range 1 8) (int_range 1 10) (int_range 0 1000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 777) in
      let m = random_matrix rng r c in
      let n = Nullspace.basis m in
      Matrix.cols n = 0 || Matrix.max_abs (Matrix.mul m n) < 1e-7)

(* ------------------------------------------------------------------ *)
(* SVD                                                                 *)
(* ------------------------------------------------------------------ *)

module Svd = Tomo_oracles.Svd

let test_svd_reconstruct () =
  let rng = Rng.create 31 in
  let a = random_matrix rng 7 4 in
  let t = Svd.decompose a in
  check_bool "U·Σ·Vᵀ = A" true
    (Matrix.equal_approx ~tol:1e-8 a (Svd.reconstruct t));
  (* Descending singular values. *)
  let s = t.Svd.sigma in
  for i = 0 to Array.length s - 2 do
    if s.(i) < s.(i + 1) then Alcotest.fail "sigma not descending"
  done

let test_svd_orthogonality () =
  let rng = Rng.create 37 in
  let a = random_matrix rng 6 6 in
  let t = Svd.decompose a in
  let vtv = Matrix.mul (Matrix.transpose t.Svd.v) t.Svd.v in
  check_bool "VᵀV = I" true
    (Matrix.equal_approx ~tol:1e-8 vtv (Matrix.identity 6));
  let utu = Matrix.mul (Matrix.transpose t.Svd.u) t.Svd.u in
  check_bool "UᵀU = I (full rank)" true
    (Matrix.equal_approx ~tol:1e-8 utu (Matrix.identity 6))

let test_svd_rank_and_nullspace () =
  (* Rank-2 matrix built from two outer products. *)
  let rng = Rng.create 41 in
  let a = random_low_rank rng 6 5 2 in
  let t = Svd.decompose a in
  check_int "rank 2" 2 (Svd.rank t);
  let nsp = Svd.nullspace_basis t in
  check_int "nullity 3" 3 (Matrix.cols nsp);
  checkf "A·N = 0" 0.0 (Matrix.max_abs (Matrix.mul a nsp))

let test_svd_rejects_wide () =
  Alcotest.check_raises "wide matrices rejected"
    (Invalid_argument "Svd.decompose: need rows >= cols") (fun () ->
      ignore (Svd.decompose (Matrix.make 2 5 1.0)))

let test_svd_known_values () =
  (* diag(3, 2) has singular values 3 and 2; condition 1.5. *)
  let a = Matrix.of_rows [| [| 3.; 0. |]; [| 0.; 2. |] |] in
  let t = Svd.decompose a in
  checkf "sigma0" 3.0 t.Svd.sigma.(0);
  checkf "sigma1" 2.0 t.Svd.sigma.(1);
  checkf "condition" 1.5 (Svd.condition t)

let prop_svd_agrees_with_gauss_rank =
  QCheck.Test.make ~name:"SVD rank = Gaussian-elimination rank" ~count:60
    QCheck.(triple (int_range 1 8) (int_range 1 8) (int_range 0 5_000))
    (fun (m, n, seed) ->
      let m = max m n in
      (* ensure rows >= cols *)
      let rng = Rng.create (seed + 9_000) in
      let a =
        Matrix.init m n (fun _ _ -> if Rng.bool rng ~p:0.4 then 1.0 else 0.0)
      in
      Svd.rank (Svd.decompose a) = Gauss.rank a)

let prop_svd_nullspace_annihilated =
  QCheck.Test.make ~name:"A · svd-nullspace = 0" ~count:60
    QCheck.(pair (int_range 2 8) (int_range 0 5_000))
    (fun (n, seed) ->
      let rng = Rng.create (seed + 11_000) in
      let a = random_low_rank rng (n + 2) n (max 1 (n / 2)) in
      let t = Svd.decompose a in
      let nsp = Svd.nullspace_basis t in
      Matrix.cols nsp = 0 || Matrix.max_abs (Matrix.mul a nsp) < 1e-7)

(* ------------------------------------------------------------------ *)
(* CGLS                                                                *)
(* ------------------------------------------------------------------ *)

module Cgls = Tomo_linalg.Cgls

(* The pools solve incidence systems: every row a set of variables with
   coefficient 1. *)
let cgls_incidence ~n_vars rows b =
  Cgls.solve_sparse
    ~a:(Sparse.of_incidence ~rows:(Array.length rows) ~cols:n_vars rows)
    ~b ()

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
    (Invalid_argument "Sparse.of_incidence: index out of range") (fun () ->
      ignore (cgls_incidence ~n_vars:1 [| [| 1 |] |] [| 1.0 |]));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Cgls.solve_sparse: size mismatch") (fun () ->
      ignore (cgls_incidence ~n_vars:1 [| [| 0 |] |] [||]))

let prop_cgls_matches_qr_least_squares =
  QCheck.Test.make ~name:"CGLS matches QR least squares on incidence rows"
    ~count:60
    QCheck.(triple (int_range 1 10) (int_range 1 8) (int_range 0 5_000))
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
        let r = Matrix.mul_vec a v in
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

module Sparse_gauss = Tomo_linalg.Sparse_gauss

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

let matrices_close ~tol a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  &&
  let ok = ref true in
  for i = 0 to Matrix.rows a - 1 do
    for j = 0 to Matrix.cols a - 1 do
      if abs_float (Matrix.get a i j -. Matrix.get b i j) > tol then
        ok := false
    done
  done;
  !ok

let random_incidence rng r c p =
  Matrix.init r c (fun _ _ -> if Rng.bool rng ~p then 1.0 else 0.0)

let test_sparse_roundtrip () =
  let rng = Rng.create 51 in
  let m =
    Matrix.init 7 9 (fun _ _ ->
        if Rng.bool rng ~p:0.3 then Rng.uniform rng ~lo:(-2.) ~hi:2. else 0.0)
  in
  let a = Sparse.of_matrix m in
  check_bool "round-trip" true (matrices_exact m (Sparse.to_matrix a));
  let expected_nnz = ref 0 in
  for i = 0 to 6 do
    for j = 0 to 8 do
      if Matrix.get m i j <> 0.0 then incr expected_nnz
    done
  done;
  check_int "nnz" !expected_nnz (Sparse.nnz a);
  checkf "density"
    (float_of_int !expected_nnz /. 63.0)
    (Sparse.density a);
  check_bool "copy is deep" true
    (let b = Sparse.copy a in
     Sparse.swap_rows b 0 1;
     matrices_exact m (Sparse.to_matrix a))

let test_sparse_of_incidence () =
  (* Unsorted indices are accepted and stored in column order. *)
  let a = Sparse.of_incidence ~rows:2 ~cols:5 [| [| 3; 0; 2 |]; [||] |] in
  let expect =
    Matrix.of_rows
      [| [| 1.; 0.; 1.; 1.; 0. |]; [| 0.; 0.; 0.; 0.; 0. |] |]
  in
  check_bool "incidence layout" true (matrices_exact expect (Sparse.to_matrix a));
  check_int "row 0 nnz" 3 (Sparse.row_nnz a 0);
  check_int "row 1 nnz" 0 (Sparse.row_nnz a 1);
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Sparse.of_incidence: duplicate index") (fun () ->
      ignore (Sparse.of_incidence ~rows:1 ~cols:4 [| [| 1; 1 |] |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sparse.of_incidence: index out of range") (fun () ->
      ignore (Sparse.of_incidence ~rows:1 ~cols:4 [| [| 4 |] |]))

let test_sparse_row_ops () =
  let m =
    Matrix.of_rows [| [| 2.; 0.; 4. |]; [| 0.; 3.; 6. |]; [| 1.; 1.; 0. |] |]
  in
  let a = Sparse.of_matrix m in
  Sparse.swap_rows a 0 2;
  check_bool "swap" true
    (matrices_exact
       (Matrix.of_rows
          [| [| 1.; 1.; 0. |]; [| 0.; 3.; 6. |]; [| 2.; 0.; 4. |] |])
       (Sparse.to_matrix a));
  Sparse.scale_row a 1 2.0;
  checkf "scale" 6.0 (Sparse.get a 1 1);
  Sparse.div_row a 1 3.0;
  checkf "div" 2.0 (Sparse.get a 1 1);
  (* dst ← dst − 2·src eliminates the (2,0) entry and fills (2,1). *)
  Sparse.sub_scaled_row a ~dst:2 ~src:0 ~coeff:2.0;
  checkf "eliminated" 0.0 (Sparse.get a 2 0);
  checkf "fill-in" (-2.0) (Sparse.get a 2 1);
  check_int "cancelled entry dropped" 2 (Sparse.row_nnz a 2);
  Sparse.drop_col_entries a 1 ~from_row:1;
  checkf "dropped" 0.0 (Sparse.get a 2 1);
  checkf "kept above from_row" 1.0 (Sparse.get a 0 1)

let prop_sparse_rref_bit_identical_incidence =
  QCheck.Test.make
    ~name:"sparse rref ≡ dense rref on 0/1 incidence matrices (exact)"
    ~count:120
    QCheck.(triple (int_range 1 18) (int_range 1 24) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 17_000) in
      let m = random_incidence rng r c 0.2 in
      let d = Gauss.rref m in
      let s = Sparse_gauss.rref (Sparse.of_matrix m) in
      d.Gauss.rank = s.Sparse_gauss.rank
      && d.Gauss.pivot_cols = s.Sparse_gauss.pivot_cols
      && matrices_exact d.Gauss.reduced
           (Sparse.to_matrix s.Sparse_gauss.reduced))

let prop_sparse_rref_matches_dense_random =
  QCheck.Test.make
    ~name:"sparse rref matches dense on dense-random controls (1e-9)"
    ~count:120
    QCheck.(triple (int_range 1 12) (int_range 1 12) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 19_000) in
      (* Half-dense real entries with arbitrary coefficients, unlike
         the 0/1 incidence rows the sparse kernel serves. *)
      let m =
        Matrix.init r c (fun _ _ ->
            if Rng.bool rng ~p:0.5 then Rng.uniform rng ~lo:(-3.) ~hi:3.
            else 0.0)
      in
      let d = Gauss.rref m in
      let s = Sparse_gauss.rref (Sparse.of_matrix m) in
      d.Gauss.rank = s.Sparse_gauss.rank
      && d.Gauss.pivot_cols = s.Sparse_gauss.pivot_cols
      && matrices_close ~tol:1e-9 d.Gauss.reduced
           (Sparse.to_matrix s.Sparse_gauss.reduced))

let prop_sparse_nullspace_same_kernel =
  QCheck.Test.make
    ~name:"sparse Nullspace.basis spans the same kernel as dense"
    ~count:80
    QCheck.(triple (int_range 1 10) (int_range 2 14) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Rng.create (seed + 23_000) in
      let m = random_incidence rng r c 0.25 in
      let rows =
        Array.init r (fun i ->
            List.init c Fun.id
            |> List.filter (fun j -> Matrix.get m i j <> 0.0)
            |> Array.of_list)
      in
      let nd = Nullspace.basis m in
      let ns = Nullspace.basis_of_incidence ~rows:r ~cols:c rows in
      let p = Matrix.cols nd in
      Matrix.cols ns = p
      && (p = 0 || Matrix.max_abs (Matrix.mul m ns) < 1e-9)
      && (p = 0
         ||
         (* Mutual expressibility: stacking the two bases adds no new
            directions, so each spans the other. *)
         let both =
           Matrix.init c (2 * p) (fun i j ->
               if j < p then Matrix.get nd i j else Matrix.get ns i (j - p))
         in
         Gauss.rank both = p))

(* Gauss edge cases pinning the kernels the sparse layer must mirror. *)

let test_gauss_edge_1x1 () =
  let one = Gauss.rref (Matrix.of_rows [| [| 5.0 |] |]) in
  check_int "1x1 rank" 1 one.Gauss.rank;
  checkf "normalized pivot" 1.0 (Matrix.get one.Gauss.reduced 0 0);
  check_bool "pivot col" true (one.Gauss.pivot_cols = [ 0 ]);
  let zero = Gauss.rref (Matrix.of_rows [| [| 0.0 |] |]) in
  check_int "1x1 zero rank" 0 zero.Gauss.rank;
  check_bool "no pivots" true (zero.Gauss.pivot_cols = [])

let test_gauss_all_zero () =
  let m = Matrix.make 3 4 0.0 in
  let d = Gauss.rref m in
  let s = Sparse_gauss.rref (Sparse.of_matrix m) in
  check_int "zero rank (dense)" 0 d.Gauss.rank;
  check_int "zero rank (sparse)" 0 s.Sparse_gauss.rank;
  check_bool "reduced stays zero" true
    (matrices_exact m (Sparse.to_matrix s.Sparse_gauss.reduced));
  check_int "full nullity" 4 (Nullspace.nullity m)

let test_gauss_tolerance_scaling () =
  (* The rank tolerance is relative to the largest entry, so scaling a
     matrix by 1e8 must not change rank or pivot choice — on either
     kernel. *)
  let rng = Rng.create 61 in
  let m = random_incidence rng 9 12 0.3 in
  let big = Matrix.init 9 12 (fun i j -> 1e8 *. Matrix.get m i j) in
  let d = Gauss.rref m and dbig = Gauss.rref big in
  check_int "dense rank invariant" d.Gauss.rank dbig.Gauss.rank;
  check_bool "dense pivots invariant" true
    (d.Gauss.pivot_cols = dbig.Gauss.pivot_cols);
  let s = Sparse_gauss.rref (Sparse.of_matrix m) in
  let sbig = Sparse_gauss.rref (Sparse.of_matrix big) in
  check_int "sparse rank invariant" s.Sparse_gauss.rank
    sbig.Sparse_gauss.rank;
  check_bool "sparse pivots invariant" true
    (s.Sparse_gauss.pivot_cols = sbig.Sparse_gauss.pivot_cols);
  check_int "dense = sparse" d.Gauss.rank s.Sparse_gauss.rank

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
let trackers_agree a b =
  let ma = Nullspace.to_matrix a and mb = Nullspace.to_matrix b in
  matrices_exact ma mb
  &&
  let ok = ref true in
  for v = 0 to Matrix.rows ma - 1 do
    if Nullspace.row_weight a v <> Nullspace.row_weight b v then ok := false
  done;
  !ok

let prop_witness_parity_incidence =
  QCheck.Test.make
    ~name:"witness tracker ≡ exact tracker on random incidence streams"
    ~count:150
    QCheck.(triple (int_range 1 14) (int_range 1 50) (int_range 0 10_000))
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
      !ok && trackers_agree wit exact)

let prop_select_independent_matches_tracker =
  QCheck.Test.make
    ~name:"select_independent ≡ incremental tracker accept/reject"
    ~count:150
    QCheck.(triple (int_range 1 12) (int_range 1 40) (int_range 0 10_000))
    (fun (n, m, seed) ->
      let rng = Rng.create (seed + 37_000) in
      let rows = Array.init m (fun _ -> random_idxs rng n) in
      let keep = Sgauss.select_independent ~tol:1e-8 ~cols:n rows in
      let tr = Nullspace.tracker ~witness_k:0 n in
      let keep' = Array.map (Nullspace.add_incidence tr) rows in
      keep = keep')

(* Adversarial near-tolerance rows: a spanned row perturbed by
   [±tol·(1±ε)] sits right at the exact test's accept boundary.  The
   witness dot of such a row is [eps · u_c(i)] — tolerance-scale, far
   above the witness threshold [tol·1e-4] — so the prefilter must hand
   every one of them to the exact path and the two trackers must keep
   making identical decisions. *)
let test_witness_adversarial_near_tol () =
  let n = 10 and tol = 1e-8 in
  let rng = Rng.create 97 in
  let wit = Nullspace.tracker ~tol ~witness_k:3 n in
  let exact = Nullspace.tracker ~tol ~witness_k:0 n in
  let accepted = ref [] in
  for i = 0 to 5 do
    let r =
      Array.init n (fun j ->
          if j = i then 1.0
          else if Rng.bool rng ~p:0.3 then 1.0
          else 0.0)
    in
    let a = Nullspace.add_row wit r in
    let b = Nullspace.add_row exact r in
    check_bool "seed decision parity" b a;
    if a then accepted := r :: !accepted
  done;
  let spanned =
    (* a combination of accepted rows: exactly dependent *)
    let acc = Array.make n 0.0 in
    List.iter
      (fun r -> Array.iteri (fun j x -> acc.(j) <- acc.(j) +. x) r)
      !accepted;
    acc
  in
  List.iter
    (fun eps_scale ->
      for i = 0 to n - 1 do
        let r = Array.copy spanned in
        r.(i) <- r.(i) +. (tol *. eps_scale);
        let a = Nullspace.add_row wit r in
        let b = Nullspace.add_row exact r in
        check_bool "near-tol decision parity" b a
      done)
    [ 1.001; 0.999; -1.001; -0.999 ];
  check_bool "bases bitwise equal after adversarial stream" true
    (trackers_agree wit exact)

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
  check_bool "bases bitwise equal" true (trackers_agree wit exact);
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
  check_bool "bases bitwise equal" true (trackers_agree wit exact);
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
  check_int "tracker_of_matrix default" 2
    (Nullspace.witness_count (Nullspace.tracker_of_matrix (Matrix.identity 4)))

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

(* Random incidence systems cut down to their greedy independent rows —
   the shape Algorithm 1 hands over. *)
let independent_system rng ~n ~m =
  let rows = Array.init m (fun _ -> random_idxs rng n) in
  let keep = Sgauss.select_independent ~tol:1e-8 ~cols:n rows in
  let kept = List.filteri (fun i _ -> keep.(i)) (Array.to_list rows) in
  Array.of_list kept

let prop_chol_min_norm =
  QCheck.Test.make
    ~name:"Sparse_chol: A·x = b, x ⟂ null(A), x ≈ CGLS, factor deterministic"
    ~count:150
    QCheck.(triple (int_range 1 16) (int_range 1 40) (int_range 0 10_000))
    (fun (n, m, seed) ->
      let rng = Rng.create (seed + 41_000) in
      let rows = independent_system rng ~n ~m in
      let r = Array.length rows in
      let b = Array.init r (fun _ -> Rng.uniform rng ~lo:(-4.) ~hi:0.) in
      let f = Sparse_chol.factor ~cols:n rows in
      let x = Sparse_chol.solve f b in
      let nb = Nullspace.basis_of_incidence ~rows:r ~cols:n rows in
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
      && f = f'
      && bits_equal x (Sparse_chol.solve f' b))

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
          Alcotest.test_case "swap/drop columns" `Quick
            test_matrix_drop_swap;
          Alcotest.test_case "degenerate shapes" `Quick
            test_matrix_degenerate_shapes;
          Alcotest.test_case "row-view aliasing" `Quick
            test_matrix_row_view_aliases;
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
          Alcotest.test_case "identifiability test" `Quick test_in_row_space;
          Alcotest.test_case "rank-reduction test" `Quick test_reduces_rank;
          Alcotest.test_case "Algorithm 2 update" `Quick
            test_update_matches_recompute;
          Alcotest.test_case "Algorithm 2 dependent row" `Quick
            test_update_dependent_row_noop;
          qc prop_update_equals_recompute;
          qc prop_rank_nullity;
          qc prop_basis_annihilated;
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
