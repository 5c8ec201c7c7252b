(* Cross-backend differential harness for the flat-memory substrate.

   The production kernels run on flat storage — row-major [Matrix]
   buffers, CSR snapshots, packed bit words — with unsafe accessors in
   the hot loops.  Each test here re-implements the same algorithm over
   naive boxed storage ([float array array], fresh vectors, closure
   dispatch) with the *identical* floating-point operation sequence, and
   asserts the two backends agree bit for bit on random fixtures.  A
   layout or indexing bug in the flat path (wrong stride, stale offset,
   missed tail word) shows up as a bitwise mismatch long before it is
   large enough to trip an approximate tolerance. *)

module Matrix = Tomo_linalg.Matrix
module Gauss = Tomo_linalg.Gauss
module Sparse = Tomo_linalg.Sparse
module Sparse_gauss = Tomo_linalg.Sparse_gauss
module Nullspace = Tomo_linalg.Nullspace
module Cgls = Tomo_linalg.Cgls
module Rng = Tomo_util.Rng

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Bitwise comparison of a flat matrix against a boxed reference.  The
   optional [loose_zeros] flag relaxes only the zero-sign distinction
   (the sparse kernel never stores a zero, so it cannot reproduce a
   dense [-0.0]). *)
let matrices_agree ?(loose_zeros = false) m (ref_rows : float array array) =
  Matrix.rows m = Array.length ref_rows
  && (Matrix.rows m = 0 || Matrix.cols m = Array.length ref_rows.(0))
  &&
  let ok = ref true in
  for i = 0 to Matrix.rows m - 1 do
    for j = 0 to Matrix.cols m - 1 do
      let x = Matrix.get m i j and y = ref_rows.(i).(j) in
      let same =
        if loose_zeros && x = 0.0 && y = 0.0 then true else bits_equal x y
      in
      if not same then ok := false
    done
  done;
  !ok

let vectors_agree x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (bits_equal v y.(i)) then ok := false) x;
  !ok

(* ------------------------------------------------------------------ *)
(* Random fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let random_dense rng r c =
  Matrix.init r c (fun _ _ ->
      (* Mix exact small integers (likely cancellations, rank deficiency)
         with irrational-looking noise (real rounding behaviour). *)
      if Rng.bool rng ~p:0.4 then float_of_int (Rng.int rng 5 - 2)
      else Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

(* A random incidence system: each row names a distinct ascending subset
   of [cols] variables — the shape every tomography candidate row has. *)
let random_incidence rng ~rows ~cols =
  Array.init rows (fun _ ->
      let acc = ref [] in
      for j = cols - 1 downto 0 do
        if Rng.bool rng ~p:0.35 then acc := j :: !acc
      done;
      Array.of_list !acc)

let matrix_of_incidence ~rows ~cols idxs =
  let m = Matrix.make rows cols 0.0 in
  Array.iteri (fun i row -> Array.iter (fun j -> Matrix.set m i j 1.0) row) idxs;
  m

(* ------------------------------------------------------------------ *)
(* Reference kernels (boxed storage, identical operation sequence)     *)
(* ------------------------------------------------------------------ *)

(* Mirror of [Gauss.rref] over [float array array]: same partial
   pivoting (strictly-greater keeps the earliest row), same relative
   threshold, same normalise-then-eliminate order. *)
let ref_rref ?(tol = Gauss.default_tol) (rows : float array array) nc =
  let a = Array.map Array.copy rows in
  let nr = Array.length a in
  let scale =
    let m = ref 0.0 in
    Array.iter
      (Array.iter (fun x -> if abs_float x > !m then m := abs_float x))
      a;
    max 1.0 !m
  in
  let threshold = tol *. scale in
  let pivots = ref [] in
  let r = ref 0 and j = ref 0 in
  while !r < nr && !j < nc do
    let best = ref !r in
    let best_abs = ref (abs_float a.(!r).(!j)) in
    for i = !r + 1 to nr - 1 do
      let v = abs_float a.(i).(!j) in
      if v > !best_abs then begin
        best := i;
        best_abs := v
      end
    done;
    if !best_abs <= threshold then begin
      for i = !r to nr - 1 do
        a.(i).(!j) <- 0.0
      done;
      incr j
    end
    else begin
      let tmp = a.(!r) in
      a.(!r) <- a.(!best);
      a.(!best) <- tmp;
      let pr = a.(!r) in
      let pivot = pr.(!j) in
      for k = 0 to nc - 1 do
        pr.(k) <- pr.(k) /. pivot
      done;
      for i = 0 to nr - 1 do
        if i <> !r then begin
          let ri = a.(i) in
          let factor = ri.(!j) in
          if factor <> 0.0 then
            for k = 0 to nc - 1 do
              ri.(k) <- ri.(k) -. (factor *. pr.(k))
            done
        end
      done;
      pivots := !j :: !pivots;
      incr r;
      incr j
    end
  done;
  (a, List.rev !pivots, !r)

(* Mirror of [Nullspace.basis]: reference rref, then the free-column
   basis extraction, all on boxed storage. *)
let ref_basis ?tol (rows : float array array) n =
  let reduced, pivot_cols, rank = ref_rref ?tol rows n in
  let is_pivot = Array.make n false in
  let pivot_row = Array.make n (-1) in
  List.iteri
    (fun row col ->
      is_pivot.(col) <- true;
      pivot_row.(col) <- row)
    pivot_cols;
  let free_cols =
    List.filter (fun j -> not is_pivot.(j)) (List.init n (fun j -> j))
  in
  let p = n - rank in
  let out = Array.make_matrix n p 0.0 in
  List.iteri
    (fun k fc ->
      out.(fc).(k) <- 1.0;
      Array.iteri
        (fun col piv -> if piv >= 0 then out.(col).(k) <- -.reduced.(piv).(fc))
        pivot_row)
    free_cols;
  out

(* Mirror of [Cgls.solve_sparse] on an incidence system (multiplying by
   a stored coefficient of exactly 1.0 is the identity): fresh boxed
   work vectors, incidence closures, same iteration and early exits. *)
let ref_cgls ~n_vars ~rows ~b ~tol =
  let m = Array.length rows in
  let max_iter = (4 * n_vars) + 100 in
  let x = Array.make n_vars 0.0 in
  if m = 0 || n_vars = 0 then x
  else begin
    let r = Array.copy b in
    let s = Array.make n_vars 0.0 in
    let p = Array.make n_vars 0.0 in
    let q = Array.make m 0.0 in
    let dot a b n =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (a.(i) *. b.(i))
      done;
      !acc
    in
    let apply_a v out =
      for i = 0 to m - 1 do
        let acc = ref 0.0 in
        Array.iter (fun j -> acc := !acc +. v.(j)) rows.(i);
        out.(i) <- !acc
      done
    in
    let apply_at w out =
      Array.fill out 0 n_vars 0.0;
      for i = 0 to m - 1 do
        if w.(i) <> 0.0 then
          Array.iter (fun j -> out.(j) <- out.(j) +. w.(i)) rows.(i)
      done
    in
    apply_at r s;
    Array.blit s 0 p 0 n_vars;
    let gamma = ref (dot s s n_vars) in
    let target = tol *. sqrt !gamma in
    (try
       for _ = 1 to max_iter do
         if sqrt !gamma <= target || !gamma = 0.0 then raise Exit;
         apply_a p q;
         let qq = dot q q m in
         if qq <= 0.0 then raise Exit;
         let alpha = !gamma /. qq in
         for j = 0 to n_vars - 1 do
           x.(j) <- x.(j) +. (alpha *. p.(j))
         done;
         for i = 0 to m - 1 do
           r.(i) <- r.(i) -. (alpha *. q.(i))
         done;
         apply_at r s;
         let gamma' = dot s s n_vars in
         let beta = gamma' /. !gamma in
         for j = 0 to n_vars - 1 do
           p.(j) <- s.(j) +. (beta *. p.(j))
         done;
         gamma := gamma'
       done
     with Exit -> ());
    x
  end

(* Mirror of [Sparse_gauss.select_independent]: the same forward
   elimination in row space, on dense boxed rows.  The dense pivot rows
   carry explicit zeros where the sparse version stores nothing;
   subtracting [x ·. 0.0] only perturbs zero signs, which none of the
   keep/reject decisions can observe. *)
let ref_select ?(tol = 1e-8) ~cols rows =
  let nr = Array.length rows in
  let keep = Array.make nr false in
  if cols > 0 then begin
    let piv = Array.make cols [||] in
    Array.iteri
      (fun ri idxs ->
        let row = Array.make cols 0.0 in
        Array.iter (fun j -> row.(j) <- row.(j) +. 1.0) idxs;
        let lead = ref (-1) in
        let j = ref 0 in
        while !lead < 0 && !j < cols do
          let x = row.(!j) in
          if x <> 0.0 then begin
            if Array.length piv.(!j) > 0 then begin
              let pv = piv.(!j) in
              for c = 0 to cols - 1 do
                row.(c) <- row.(c) -. (x *. pv.(c))
              done;
              row.(!j) <- 0.0
            end
            else if abs_float x > tol then lead := !j
            else row.(!j) <- 0.0
          end;
          if !lead < 0 then incr j
        done;
        if !lead >= 0 then begin
          keep.(ri) <- true;
          let l = !lead in
          let pivot = row.(l) in
          let pv = Array.make cols 0.0 in
          for c = l to cols - 1 do
            pv.(c) <- row.(c) /. pivot
          done;
          piv.(l) <- pv
        end)
      rows
  end;
  keep

(* ------------------------------------------------------------------ *)
(* Differential properties                                             *)
(* ------------------------------------------------------------------ *)

let seeded_rng (seed, r, c) = Rng.create (seed + (1009 * r) + (100003 * c))

let dims_gen = QCheck.(triple (int_range 0 1000) (int_range 0 10) (int_range 1 10))

let prop_rref_dense_matches_reference =
  QCheck.Test.make ~name:"flat rref_dense == boxed reference (bitwise)"
    ~count:120 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let m = random_dense rng r c in
      let { Gauss.reduced; pivot_cols; rank } = Gauss.rref m in
      let ref_red, ref_pivots, ref_rank = ref_rref (Matrix.to_rows m) c in
      rank = ref_rank && pivot_cols = ref_pivots
      && matrices_agree reduced ref_red)

let prop_rref_incidence_matches_reference =
  QCheck.Test.make
    ~name:"flat rref_dense == boxed reference on incidence fixtures"
    ~count:120 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let idxs = random_incidence rng ~rows:r ~cols:c in
      let m = matrix_of_incidence ~rows:r ~cols:c idxs in
      let { Gauss.reduced; pivot_cols; rank } = Gauss.rref m in
      let ref_red, ref_pivots, ref_rank = ref_rref (Matrix.to_rows m) c in
      rank = ref_rank && pivot_cols = ref_pivots
      && matrices_agree reduced ref_red)

let prop_rref_sparse_matches_reference =
  QCheck.Test.make
    ~name:"sparse rref == boxed reference (values; zero signs free)"
    ~count:120 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let idxs = random_incidence rng ~rows:r ~cols:c in
      let m = matrix_of_incidence ~rows:r ~cols:c idxs in
      let { Sparse_gauss.reduced; pivot_cols; rank } =
        Sparse_gauss.rref (Sparse.of_matrix m)
      in
      let ref_red, ref_pivots, ref_rank = ref_rref (Matrix.to_rows m) c in
      rank = ref_rank && pivot_cols = ref_pivots
      && matrices_agree ~loose_zeros:true (Sparse.to_matrix reduced) ref_red)

let prop_nullspace_matches_reference =
  QCheck.Test.make ~name:"flat null-space basis == boxed reference (bitwise)"
    ~count:120 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let idxs = random_incidence rng ~rows:r ~cols:c in
      let m = matrix_of_incidence ~rows:r ~cols:c idxs in
      let basis = Nullspace.basis m in
      let ref_b = ref_basis (Matrix.to_rows m) c in
      matrices_agree basis ref_b)

(* Algorithm 1 seeds its basis through the sparse kernel; the basis it
   extracts must equal the boxed dense oracle's bit for bit, except that
   the sparse kernel cannot reproduce a dense [-0.0]. *)
let prop_incidence_nullspace_matches_reference =
  QCheck.Test.make
    ~name:"basis_of_incidence == boxed reference (zero signs free)"
    ~count:120 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let idxs = random_incidence rng ~rows:r ~cols:c in
      let m = matrix_of_incidence ~rows:r ~cols:c idxs in
      let basis = Nullspace.basis_of_incidence ~rows:r ~cols:c idxs in
      matrices_agree ~loose_zeros:true basis (ref_basis (Matrix.to_rows m) c))

let prop_cgls_sparse_matches_reference =
  QCheck.Test.make ~name:"flat-CSR CGLS == boxed reference (bitwise)"
    ~count:80 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let rows = random_incidence rng ~rows:r ~cols:c in
      let b =
        Array.init r (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
      in
      let a = Sparse.of_incidence ~rows:r ~cols:c rows in
      let x = Cgls.solve_sparse ~a ~b () in
      let ref_x = ref_cgls ~n_vars:c ~rows ~b ~tol:1e-12 in
      vectors_agree x ref_x)

let prop_select_matches_reference =
  QCheck.Test.make
    ~name:"sparse greedy selection == boxed reference decisions" ~count:150
    dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let rows = random_incidence rng ~rows:r ~cols:c in
      Sparse_gauss.select_independent ~cols:c rows = ref_select ~cols:c rows)

(* A fixed regression case exercising the flat kernels at a size where
   stride bugs cannot hide in a single cache line. *)
let test_large_fixture () =
  let rng = Rng.create 0xD1FF in
  let r = 60 and c = 45 in
  let idxs = random_incidence rng ~rows:r ~cols:c in
  let m = matrix_of_incidence ~rows:r ~cols:c idxs in
  let { Gauss.reduced; pivot_cols; rank } = Gauss.rref m in
  let ref_red, ref_pivots, ref_rank = ref_rref (Matrix.to_rows m) c in
  Alcotest.(check int) "rank" ref_rank rank;
  Alcotest.(check (list int)) "pivots" ref_pivots pivot_cols;
  Alcotest.(check bool) "reduced bits" true (matrices_agree reduced ref_red);
  let basis = Nullspace.basis m in
  Alcotest.(check bool) "basis bits" true
    (matrices_agree basis (ref_basis (Matrix.to_rows m) c));
  let b = Array.init r (fun i -> float_of_int (i mod 7) /. 3.0) in
  let a = Sparse.of_incidence ~rows:r ~cols:c idxs in
  let x = Cgls.solve_sparse ~a ~b () in
  Alcotest.(check bool) "cgls bits" true
    (vectors_agree x (ref_cgls ~n_vars:c ~rows:idxs ~b ~tol:1e-12))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "differential"
    [
      ( "rref",
        [
          qc prop_rref_dense_matches_reference;
          qc prop_rref_incidence_matches_reference;
          qc prop_rref_sparse_matches_reference;
        ] );
      ( "nullspace",
        [
          qc prop_nullspace_matches_reference;
          qc prop_incidence_nullspace_matches_reference;
        ] );
      ("cgls", [ qc prop_cgls_sparse_matches_reference ]);
      ("selection", [ qc prop_select_matches_reference ]);
      ( "fixtures",
        [ Alcotest.test_case "large incidence fixture" `Quick test_large_fixture ]
      );
    ]
