(* Cross-backend differential harness for the flat-memory substrate.

   The production kernels run on compact storage — sparse rows, flat
   column blocks, CSR snapshots — with unsafe accessors in the hot
   loops.  Each test here re-implements the same algorithm over naive
   boxed storage ([float array array], fresh vectors, closure dispatch)
   with the *identical* floating-point operation sequence, and asserts
   the two backends agree bit for bit on random fixtures.  A layout or
   indexing bug in the production path (wrong offset, stale cursor,
   missed entry) shows up as a bitwise mismatch long before it is large
   enough to trip an approximate tolerance.  The dense elimination and
   null-space basis references live in [test/oracles] ([Gauss]), shared
   with test_linalg, as does the sorted-merge sparse elimination
   ([Sparse_rref]) the seed elimination reproduces. *)

module Matrix = Tomo_oracles.Matrix
module Gauss = Tomo_oracles.Gauss
module Dense = Tomo_oracles.Dense
module Sparse_rref = Tomo_oracles.Sparse_rref
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

(* The sparse reduced form, read entry by entry through
   [Sparse_rref.get]. *)
let sparse_agree ?loose_zeros a ref_rows =
  matrices_agree ?loose_zeros
    (Matrix.init (Sparse_rref.rows a) (Sparse_rref.cols a) (Sparse_rref.get a))
    ref_rows

let vectors_agree x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (bits_equal v y.(i)) then ok := false) x;
  !ok

(* ------------------------------------------------------------------ *)
(* Random fixtures                                                     *)
(* ------------------------------------------------------------------ *)

(* A random incidence system: each row names a distinct ascending subset
   of [cols] variables — the shape every tomography candidate row has. *)
let random_incidence rng ~rows ~cols =
  Array.init rows (fun _ ->
      let acc = ref [] in
      for j = cols - 1 downto 0 do
        if Rng.bool rng ~p:0.35 then acc := j :: !acc
      done;
      Array.of_list !acc)

(* ------------------------------------------------------------------ *)
(* Reference kernels (boxed storage, identical operation sequence)     *)
(* ------------------------------------------------------------------ *)

(* Mirror of [Cgls.solve] on an incidence system: fresh boxed
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

let dims_gen =
  QCheck.(
    triple (int_range 0 1000) (int_range 0 10) (Qgen.int_range 1 10))

let prop_rref_sparse_matches_reference =
  QCheck.Test.make
    ~name:"sparse rref == boxed reference (values; zero signs free)"
    ~count:120 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let idxs = random_incidence rng ~rows:r ~cols:c in
      let { Sparse_rref.reduced; pivot_cols; rank } =
        Sparse_rref.rref (Sparse_rref.of_incidence ~rows:r ~cols:c idxs)
      in
      let o = Gauss.rref ~cols:c (Gauss.of_incidence ~cols:c idxs) in
      rank = o.Gauss.rank && pivot_cols = o.Gauss.pivot_cols
      && sparse_agree ~loose_zeros:true reduced o.Gauss.reduced)

(* The seed tracker's basis as an [nvars × p] matrix. *)
let basis_matrix ~cols tr = Dense.of_columns ~rows:cols (Nullspace.columns tr)

(* Algorithm 1 seeds its tracker through the sparse kernel; the basis it
   writes must equal the boxed dense oracle's bit for bit, except that
   the sparse kernel cannot reproduce a dense [-0.0]. *)
let prop_incidence_nullspace_matches_reference =
  QCheck.Test.make
    ~name:"of_incidence == boxed reference (zero signs free)"
    ~count:120 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let idxs = random_incidence rng ~rows:r ~cols:c in
      let tol = Gauss.default_tol in
      let basis =
        basis_matrix ~cols:c (Nullspace.of_incidence ~tol ~rows:r ~cols:c idxs)
      in
      matrices_agree ~loose_zeros:true basis
        (Gauss.basis ~cols:c (Gauss.of_incidence ~cols:c idxs)))

(* The seed elimination performs the sorted-merge kernel's operations
   in the same order, with exact zeros stored as [+0.0]: the basis it
   writes into the tracker must equal the reference's bit for bit, zero
   signs included.  The tracker around it must be the one [of_columns]
   builds from the reference basis: weights equal to a recount at the
   tracker's tolerance, witnesses equal to [N · g_c] summed from
   scratch (a defect of exactly 0), and, fed the same candidate rows,
   the same verdicts and bitwise-equal columns after them.  The systems
   mix densities from empty rows to dense ones, repeat rows to force
   rank deficiency, append every unit row on some seeds (a trivial null
   space), include [rows = 0] (the identity basis), and draw the pivot
   tolerance from values that zero out small columns as well as the
   default. *)
let prop_seed_matches_sorted_merge =
  QCheck.Test.make
    ~name:"of_incidence == sorted-merge reference (bitwise)"
    ~count:300
    QCheck.(triple (int_range 0 100_000) (int_range 0 24) (Qgen.int_range 1 24))
    (fun ((seed, r, c) as k) ->
      let rng = seeded_rng k in
      let density = Rng.float rng 0.7 in
      let row () =
        let acc = ref [] in
        for j = c - 1 downto 0 do
          if Rng.bool rng ~p:density then acc := j :: !acc
        done;
        Array.of_list !acc
      in
      let idxs = Array.init r (fun _ -> row ()) in
      (* Repeated rows: rank deficiency beyond what the density gives. *)
      for i = 1 to r - 1 do
        if Rng.bool rng ~p:0.2 then idxs.(i) <- idxs.(Rng.int rng i)
      done;
      let idxs =
        if seed mod 7 = 0 then
          Array.append idxs (Array.init c (fun j -> [| j |]))
        else idxs
      in
      let r = Array.length idxs in
      let tol = [| 1e-10; 1e-8; 0.2; 0.4 |].(Rng.int rng 4) in
      let tr = Nullspace.of_incidence ~tol ~rows:r ~cols:c idxs in
      let oracle = Sparse_rref.basis ~tol ~rows:r ~cols:c idxs in
      let adopted = Nullspace.of_columns ~tol ~nvars:c (Dense.columns oracle) in
      let same_columns a b =
        matrices_agree (basis_matrix ~cols:c a)
          (Dense.to_rows (basis_matrix ~cols:c b))
      in
      let weights_recounted =
        let cols = Nullspace.columns tr in
        List.for_all
          (fun i ->
            Nullspace.row_weight tr i
            = Array.fold_left
                (fun w col -> if abs_float col.(i) > tol then w + 1 else w)
                0 cols)
          (List.init c Fun.id)
      in
      let candidates = Array.init 12 (fun _ -> row ()) in
      matrices_agree (basis_matrix ~cols:c tr) (Dense.to_rows oracle)
      && weights_recounted
      && Nullspace.witness_defect tr = 0.0
      && Array.for_all
           (fun cand ->
             Nullspace.add_incidence tr cand
             = Nullspace.add_incidence adopted cand)
           candidates
      && same_columns tr adopted
      && List.for_all
           (fun i -> Nullspace.row_weight tr i = Nullspace.row_weight adopted i)
           (List.init c Fun.id))

let prop_cgls_sparse_matches_reference =
  QCheck.Test.make ~name:"flat-CSR CGLS == boxed reference (bitwise)"
    ~count:80 dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let rows = random_incidence rng ~rows:r ~cols:c in
      let b =
        Array.init r (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
      in
      let x = Cgls.solve ~cols:c rows b in
      let ref_x = ref_cgls ~n_vars:c ~rows ~b ~tol:1e-12 in
      vectors_agree x ref_x)

let prop_select_matches_reference =
  QCheck.Test.make
    ~name:"sparse greedy selection == boxed reference decisions" ~count:150
    dims_gen (fun ((_, r, c) as k) ->
      let rng = seeded_rng k in
      let rows = random_incidence rng ~rows:r ~cols:c in
      Sparse_gauss.select_independent ~cols:c rows = ref_select ~cols:c rows)

(* A fixed regression case exercising the production kernels at a size
   where offset bugs cannot hide in a handful of entries. *)
let test_large_fixture () =
  let rng = Rng.create 0xD1FF in
  let r = 60 and c = 45 in
  let idxs = random_incidence rng ~rows:r ~cols:c in
  let dense = Gauss.of_incidence ~cols:c idxs in
  let { Sparse_rref.reduced; pivot_cols; rank } =
    Sparse_rref.rref (Sparse_rref.of_incidence ~rows:r ~cols:c idxs)
  in
  let o = Gauss.rref ~cols:c dense in
  Alcotest.(check int) "rank" o.Gauss.rank rank;
  Alcotest.(check (list int)) "pivots" o.Gauss.pivot_cols pivot_cols;
  Alcotest.(check bool) "reduced bits" true
    (sparse_agree ~loose_zeros:true reduced o.Gauss.reduced);
  let basis =
    basis_matrix ~cols:c
      (Nullspace.of_incidence ~tol:Gauss.default_tol ~rows:r ~cols:c idxs)
  in
  Alcotest.(check bool) "basis bits" true
    (matrices_agree ~loose_zeros:true basis (Gauss.basis ~cols:c dense));
  let b = Array.init r (fun i -> float_of_int (i mod 7) /. 3.0) in
  let x = Cgls.solve ~cols:c idxs b in
  Alcotest.(check bool) "cgls bits" true
    (vectors_agree x (ref_cgls ~n_vars:c ~rows:idxs ~b ~tol:1e-12))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "differential"
    [
      ("rref", [ qc prop_rref_sparse_matches_reference ]);
      ("nullspace", [ qc prop_incidence_nullspace_matches_reference ]);
      ("seed", [ qc prop_seed_matches_sorted_merge ]);
      ("cgls", [ qc prop_cgls_sparse_matches_reference ]);
      ("selection", [ qc prop_select_matches_reference ]);
      ( "fixtures",
        [ Alcotest.test_case "large incidence fixture" `Quick test_large_fixture ]
      );
    ]
