let default_tol = 1e-8

module Obs = Tomo_obs
module Rng = Tomo_util.Rng

(* Algorithm 2 observability: how often the null space advances by the
   paper's incremental update vs. a from-scratch recomputation, and how
   many candidate rows the update rejects as dependent. *)
let c_recomputes = Obs.Metrics.counter "nullspace_recomputes"
let c_incremental = Obs.Metrics.counter "nullspace_incremental_updates"
let c_rejections = Obs.Metrics.counter "nullspace_dependent_rejections"

(* Witness-prefilter observability: how many candidate rows the random
   projections rejected without touching the basis, how many fell
   through to the exact test, and how much work each witness dot cost
   (the number of summed entries). *)
let c_wit_rejections = Obs.Metrics.counter "alg1_witness_rejections"
let c_wit_passes = Obs.Metrics.counter "alg1_witness_passes"
let h_wit_nnz = Obs.Metrics.histogram "witness_dot_nnz"

(* Basis extraction from a reduced row-echelon form, abstracted over how
   the reduced matrix is read — the dense path reads a [Matrix.t], the
   sparse path reads the [Sparse.t] directly (no dense materialization
   of the reduced system). *)
let extract_basis ~n ~rank ~pivot_cols ~get =
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
  let out = Matrix.make n p 0.0 in
  List.iteri
    (fun k fc ->
      (* Basis vector k: free variable [fc] = 1, pivot variables read off
         the reduced system. *)
      Matrix.set out fc k 1.0;
      Array.iteri
        (fun col piv ->
          if piv >= 0 then Matrix.set out col k (-.get piv fc))
        pivot_row)
    free_cols;
  out

let basis ?tol m =
  Obs.Metrics.incr c_recomputes;
  let { Gauss.reduced; pivot_cols; rank } = Gauss.rref ?tol m in
  extract_basis ~n:(Matrix.cols m) ~rank ~pivot_cols ~get:(fun piv fc ->
      Matrix.get reduced piv fc)

let nullity ?tol m = Matrix.cols (basis ?tol m)

let in_row_space ?(tol = default_tol) n i =
  let p = Matrix.cols n in
  let rec go j = j >= p || (abs_float (Matrix.get n i j) <= tol && go (j + 1)) in
  go 0

let row_dot_cols n r =
  (* r · N for a row vector r of length rows(N). *)
  Matrix.vec_mul r n

let reduces_rank ?(tol = default_tol) n r =
  if Matrix.cols n = 0 then false
  else
    let v = row_dot_cols n r in
    Array.exists (fun x -> abs_float x > tol) v

(* Pivot selection shared by every update variant: the index of the
   largest |v.(k)| over v.(0..p-1), or None when that maximum is within
   [tol] of zero (the row is dependent; the counters are bumped here so
   the callers stay branch-free). *)
let pick_pivot ~tol v p =
  let j = ref 0 in
  for k = 1 to p - 1 do
    if abs_float v.(k) > abs_float v.(!j) then j := k
  done;
  if abs_float v.(!j) <= tol then begin
    Obs.Metrics.incr c_rejections;
    None
  end
  else begin
    Obs.Metrics.incr c_incremental;
    Some !j
  end

(* The column-elimination kernel behind [update] and [update_incidence]:
   project every non-pivot column of [n] against the pivot column [j]
   and write the result straight into a fresh [nvars × (p-1)] matrix.
   Reads the pivot column in place — no [Matrix.col] scratch vector —
   and skips the inner loop entirely when a coefficient is zero (an
   incidence row misses most columns).  When the pivot column itself is
   sparse — the common case for incidence bases — only its nonzero rows
   are projected; the rest copy across unchanged, which is exactly what
   the dense arithmetic computes for them ([x −. coeff · 0 = x]). *)
let eliminate_matrix n v j =
  let nvars = Matrix.rows n and p = Matrix.cols n in
  let pivot = v.(j) in
  let nnz = ref 0 in
  for i = 0 to nvars - 1 do
    if Matrix.unsafe_get n i j <> 0.0 then incr nnz
  done;
  let sparse = 2 * !nnz < nvars in
  let idx =
    if not sparse then [||]
    else begin
      let a = Array.make (max 1 !nnz) 0 in
      let k = ref 0 in
      for i = 0 to nvars - 1 do
        if Matrix.unsafe_get n i j <> 0.0 then begin
          a.(!k) <- i;
          incr k
        end
      done;
      a
    end
  in
  let out = Matrix.make nvars (p - 1) 0.0 in
  let dst = ref 0 in
  for k = 0 to p - 1 do
    if k <> j then begin
      let coeff = v.(k) /. pivot in
      if coeff = 0.0 then
        for i = 0 to nvars - 1 do
          Matrix.unsafe_set out i !dst (Matrix.unsafe_get n i k)
        done
      else if sparse then begin
        for i = 0 to nvars - 1 do
          Matrix.unsafe_set out i !dst (Matrix.unsafe_get n i k)
        done;
        for m = 0 to !nnz - 1 do
          let i = Array.unsafe_get idx m in
          Matrix.unsafe_set out i !dst
            (Matrix.unsafe_get n i k -. (coeff *. Matrix.unsafe_get n i j))
        done
      end
      else
        for i = 0 to nvars - 1 do
          Matrix.unsafe_set out i !dst
            (Matrix.unsafe_get n i k -. (coeff *. Matrix.unsafe_get n i j))
        done;
      incr dst
    end
  done;
  out

let update_incidence ?(tol = default_tol) n idxs =
  let nvars = Matrix.rows n and p = Matrix.cols n in
  Array.iter
    (fun i ->
      if i < 0 || i >= nvars then
        invalid_arg "Nullspace.update_incidence: index out of range")
    idxs;
  if p = 0 then None
  else begin
    (* v = r · N where r is the incidence row: sum the rows of N named by
       idxs. *)
    let v = Array.make p 0.0 in
    Array.iter
      (fun i ->
        for k = 0 to p - 1 do
          v.(k) <- v.(k) +. Matrix.unsafe_get n i k
        done)
      idxs;
    match pick_pivot ~tol v p with
    | None -> None
    | Some j -> Some (eliminate_matrix n v j)
  end

let basis_of_incidence ?tol ~rows ~cols idxs =
  Obs.Metrics.incr c_recomputes;
  if cols = 0 then Matrix.make 0 0 0.0
  else if rows = 0 then Matrix.identity cols
  else
    let sp = Sparse.of_incidence ~rows ~cols idxs in
    let { Sparse_gauss.reduced; pivot_cols; rank } =
      Sparse_gauss.rref ?tol sp
    in
    extract_basis ~n:cols ~rank ~pivot_cols ~get:(fun piv fc ->
        Sparse.get reduced piv fc)

let update ?(tol = default_tol) n r =
  let nvars = Matrix.rows n and p = Matrix.cols n in
  if Array.length r <> nvars then invalid_arg "Nullspace.update: bad row";
  if p = 0 then n
  else begin
    let v = row_dot_cols n r in
    match pick_pivot ~tol v p with
    | None -> n
    | Some j -> eliminate_matrix n v j
  end

(* ------------------------------------------------------------------ *)
(* In-place tracker                                                     *)
(* ------------------------------------------------------------------ *)

(* Algorithm 1 feeds thousands of candidate rows through the update; the
   functional API above allocates an [nvars × (p-1)] matrix per accepted
   row (and a scratch pivot column per call).  The tracker instead keeps
   the basis as [p] column vectors and eliminates in place: an accepted
   row costs one pass over the touched columns and zero allocation, and
   a per-variable non-zero count (the Hamming weight Algorithm 1 sorts
   by) is maintained incrementally during the same pass. *)
(* ---- Witness prefilter ----

   A candidate row [r] is dependent iff [r · N = 0].  Testing that
   exactly costs O(nnz(r) · p); with ~98% of candidates dependent, that
   projection is where Algorithm 1 and the correlation pipelines spend
   their time.  The tracker therefore keeps [k] witness vectors
   [u_c = N · g_c] for random coefficient vectors [g_c]: since
   [r · u_c = (r · N) · g_c], a dependent row has every witness dot at
   rounding-noise scale, and the dot is a plain sum of [nnz(r)] floats.
   If all [k] dots are within the witness tolerance the row is rejected
   in O(k · nnz(r)); if any fires, the exact test runs — so a dependent
   row can never be falsely *accepted*, and an independent row is
   falsely rejected only if all [k] random projections of a vector with
   an above-tolerance entry cancel below [wtol ≪ tol] simultaneously.
   Eliminations apply the same projection to each witness as to every
   basis column ([u' = u − (r·u / pivot) · n_j]), so the invariant
   [u_c = N · g_c] is maintained in place at O(nnz(pivot column)) per
   accepted row.  Trackers keep [default_k] witnesses unless the caller
   passes [?witness_k] ([0] runs the exact test alone — the reference
   the parity properties compare against). *)

let default_k = 2

(* Witness coefficients are drawn from seeded streams keyed only by the
   tracker dimension and witness index, so a tracker's behaviour never
   depends on how many trackers the process created before it (streaming
   and batch runs build different numbers of trackers and must still
   make bit-identical decisions). *)
let witness_base_seed = 0x5749544e (* "WITN" *)

let draw_witness_g ~dim ~columns c =
  let rng = Rng.split_int (Rng.split_int (Rng.create witness_base_seed) dim) c in
  let g = Array.make (max 1 columns) 0.0 in
  for k = 0 to columns - 1 do
    let m = Rng.uniform rng ~lo:0.5 ~hi:1.5 in
    g.(k) <- (if Rng.bool rng ~p:0.5 then m else -.m)
  done;
  g

(* Column storage is one flat unboxed block: logical column [k] is the
   [nvars]-float slice of [colbuf] starting at [col_off.(k)].  Dropping
   a column is an O(p) shuffle of offsets (the freed slice parks at the
   tail for reuse), and the elimination loops stream contiguous floats
   instead of chasing one boxed array per column. *)
type tracker = {
  nvars : int;
  tol : float;
  wtol : float; (* witness-dot rejection threshold, ≪ tol *)
  mutable p : int;
  colbuf : float array; (* flat column block, nvars · initial-p floats *)
  col_off : int array; (* col_off.(0..p-1): base offset of column k *)
  v : float array; (* scratch for r · N, length nvars *)
  weights : int array; (* weights.(i) = #{k | |col k at row i| > tol} *)
  idx : int array; (* scratch: nonzero rows of the pivot column *)
  wit_u : float array array; (* wit_u.(c) = N · wit_g.(c), length nvars *)
  wit_g : float array array; (* coefficients, first [p] entries live *)
  wit_dot : float array; (* scratch: r · u_c for the row under test *)
}

let default_witness_tol_factor = 1e-4

let make_tracker ~tol ~witness_k ~witness_tol ~nvars ~p ~colbuf ~weights =
  let k = match witness_k with Some k -> min (max 0 k) 16 | None -> default_k in
  let wtol =
    match witness_tol with Some w -> w | None -> tol *. default_witness_tol_factor
  in
  let col_off = Array.init (max 1 p) (fun k -> k * nvars) in
  let wit_g = Array.init k (fun c -> draw_witness_g ~dim:nvars ~columns:p c) in
  let wit_u =
    Array.init k (fun c ->
        let g = wit_g.(c) in
        let u = Array.make (max 1 nvars) 0.0 in
        for i = 0 to nvars - 1 do
          let acc = ref 0.0 in
          for kk = 0 to p - 1 do
            acc := !acc +. (g.(kk) *. colbuf.((kk * nvars) + i))
          done;
          u.(i) <- !acc
        done;
        u)
  in
  {
    nvars;
    tol;
    wtol;
    p;
    colbuf;
    col_off;
    v = Array.make (max 1 (max p nvars)) 0.0;
    weights;
    idx = Array.make (max 1 nvars) 0;
    wit_u;
    wit_g;
    wit_dot = Array.make (max 1 k) 0.0;
  }

let tracker ?(tol = default_tol) ?witness_k ?witness_tol nvars =
  if nvars < 0 then invalid_arg "Nullspace.tracker: negative dimension";
  let colbuf = Array.make (max 1 (nvars * nvars)) 0.0 in
  for k = 0 to nvars - 1 do
    colbuf.((k * nvars) + k) <- 1.0
  done;
  let weights = Array.make nvars (if 1.0 > tol then 1 else 0) in
  make_tracker ~tol ~witness_k ~witness_tol ~nvars ~p:nvars ~colbuf ~weights

let tracker_of_matrix ?(tol = default_tol) ?witness_k ?witness_tol m =
  let nvars = Matrix.rows m and p = Matrix.cols m in
  let colbuf = Array.make (max 1 (p * nvars)) 0.0 in
  for k = 0 to p - 1 do
    for i = 0 to nvars - 1 do
      colbuf.((k * nvars) + i) <- Matrix.get m i k
    done
  done;
  let weights = Array.make nvars 0 in
  for i = 0 to nvars - 1 do
    let w = ref 0 in
    for k = 0 to p - 1 do
      if abs_float colbuf.((k * nvars) + i) > tol then incr w
    done;
    weights.(i) <- !w
  done;
  make_tracker ~tol ~witness_k ~witness_tol ~nvars ~p ~colbuf ~weights

let witness_count t = Array.length t.wit_u

(* Worst absolute deviation of any maintained witness from a from-
   scratch recomputation [N · g_c] — the drift the in-place updates
   accumulate.  O(k · nvars · p); testing / diagnostics only. *)
let witness_defect t =
  let worst = ref 0.0 in
  for c = 0 to Array.length t.wit_u - 1 do
    let u = t.wit_u.(c) and g = t.wit_g.(c) in
    for i = 0 to t.nvars - 1 do
      let acc = ref 0.0 in
      for k = 0 to t.p - 1 do
        acc := !acc +. (g.(k) *. t.colbuf.(t.col_off.(k) + i))
      done;
      let d = abs_float (!acc -. u.(i)) in
      if d > !worst then worst := d
    done
  done;
  !worst

let dim t = t.p
let row_weight t i = t.weights.(i)

(* Shared in-place elimination: [t.v.(0..p-1)] holds r · N.  Consumes
   the pivot column, projects the others in place, and keeps [weights]
   current by watching each element cross the tolerance threshold.  Rows
   where the pivot column is exactly zero are untouched by the dense
   arithmetic ([x −. coeff · 0 = x], no weight transition), so when the
   pivot column is sparse — it usually is over incidence systems — only
   its nonzero rows are visited. *)
let eliminate_in_place t j =
  let p = t.p and nvars = t.nvars and tol = t.tol in
  let v = t.v in
  let pivot = v.(j) in
  let buf = t.colbuf in
  let nj = t.col_off.(j) in
  let idx = t.idx in
  let nnz = ref 0 in
  for i = 0 to nvars - 1 do
    let x = Array.unsafe_get buf (nj + i) in
    if x <> 0.0 then begin
      Array.unsafe_set idx !nnz i;
      incr nnz
    end;
    if abs_float x > tol then t.weights.(i) <- t.weights.(i) - 1
  done;
  let nnz = !nnz in
  (* Witnesses ride the same pivot-column pass: [u − (r·u / pivot) · n_j]
     is exactly the projection applied to every remaining column, so the
     invariant [u_c = N' · g_c] survives the elimination.  [wit_dot]
     holds [r · u_c] from the prefilter that ran on this row. *)
  for c = 0 to Array.length t.wit_u - 1 do
    let coeff = Array.unsafe_get t.wit_dot c /. pivot in
    if coeff <> 0.0 then begin
      let u = t.wit_u.(c) in
      for m = 0 to nnz - 1 do
        let i = Array.unsafe_get idx m in
        Array.unsafe_set u i
          (Array.unsafe_get u i -. (coeff *. Array.unsafe_get buf (nj + i)))
      done
    end;
    (* Drop the consumed coefficient, keeping [wit_g] parallel to
       [cols]. *)
    let g = t.wit_g.(c) in
    for k = j to p - 2 do
      g.(k) <- g.(k + 1)
    done
  done;
  let sparse = 2 * nnz < nvars in
  for k = 0 to p - 1 do
    if k <> j then begin
      let coeff = Array.unsafe_get v k /. pivot in
      if coeff <> 0.0 then begin
        let ck = t.col_off.(k) in
        if sparse then
          for m = 0 to nnz - 1 do
            let i = Array.unsafe_get idx m in
            let old_v = Array.unsafe_get buf (ck + i) in
            let new_v =
              old_v -. (coeff *. Array.unsafe_get buf (nj + i))
            in
            Array.unsafe_set buf (ck + i) new_v;
            let was_nz = abs_float old_v > tol
            and is_nz = abs_float new_v > tol in
            if was_nz && not is_nz then t.weights.(i) <- t.weights.(i) - 1
            else if is_nz && not was_nz then
              t.weights.(i) <- t.weights.(i) + 1
          done
        else
          for i = 0 to nvars - 1 do
            let old_v = Array.unsafe_get buf (ck + i) in
            let new_v =
              old_v -. (coeff *. Array.unsafe_get buf (nj + i))
            in
            Array.unsafe_set buf (ck + i) new_v;
            let was_nz = abs_float old_v > tol
            and is_nz = abs_float new_v > tol in
            if was_nz && not is_nz then t.weights.(i) <- t.weights.(i) - 1
            else if is_nz && not was_nz then
              t.weights.(i) <- t.weights.(i) + 1
          done
      end
    end
  done;
  (* Drop the consumed pivot column, preserving the order of the rest
     (the functional API keeps order too, so both paths yield the same
     basis).  Only offsets move — no floats are copied; the freed slice
     parks at the tail for potential reuse. *)
  for k = j to p - 2 do
    t.col_off.(k) <- t.col_off.(k + 1)
  done;
  t.col_off.(p - 1) <- nj;
  t.p <- p - 1

(* The O(k · nnz) fast path: every witness dot within [wtol] ⇒ reject
   without touching the basis.  [dot r u_c] is supplied by the caller
   (an incidence row sums [nnz] entries of [u_c]; a dense row is a full
   dot product).  Fills [t.wit_dot] for {!eliminate_in_place}. *)
let witness_rejects t ~nnz dot =
  let k = Array.length t.wit_u in
  if k = 0 then false
  else begin
    if Obs.Metrics.enabled () then
      Obs.Metrics.observe h_wit_nnz (float_of_int nnz);
    let all_small = ref true in
    for c = 0 to k - 1 do
      let d = dot t.wit_u.(c) in
      t.wit_dot.(c) <- d;
      if abs_float d > t.wtol then all_small := false
    done;
    if !all_small then begin
      Obs.Metrics.incr c_wit_rejections;
      Obs.Metrics.incr c_rejections;
      true
    end
    else begin
      Obs.Metrics.incr c_wit_passes;
      false
    end
  end

let incidence_dot idxs u =
  let acc = ref 0.0 in
  Array.iter (fun i -> acc := !acc +. Array.unsafe_get u i) idxs;
  !acc

let add_incidence t idxs =
  Array.iter
    (fun i ->
      if i < 0 || i >= t.nvars then
        invalid_arg "Nullspace.add_incidence: index out of range")
    idxs;
  let p = t.p in
  if p = 0 then false
  else if witness_rejects t ~nnz:(Array.length idxs) (incidence_dot idxs) then
    false
  else begin
    let v = t.v in
    Array.fill v 0 p 0.0;
    let buf = t.colbuf and off = t.col_off in
    Array.iter
      (fun i ->
        for k = 0 to p - 1 do
          v.(k) <-
            v.(k) +. Array.unsafe_get buf (Array.unsafe_get off k + i)
        done)
      idxs;
    match pick_pivot ~tol:t.tol v p with
    | None -> false
    | Some j ->
        eliminate_in_place t j;
        true
  end

let dense_dot ~n r u =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (Array.unsafe_get r i *. Array.unsafe_get u i)
  done;
  !acc

let add_row t r =
  if Array.length r <> t.nvars then invalid_arg "Nullspace.add_row: bad row";
  let p = t.p in
  if p = 0 then false
  else if witness_rejects t ~nnz:t.nvars (dense_dot ~n:t.nvars r) then false
  else begin
    let v = t.v in
    let buf = t.colbuf in
    for k = 0 to p - 1 do
      let ck = t.col_off.(k) in
      let acc = ref 0.0 in
      for i = 0 to t.nvars - 1 do
        acc :=
          !acc +. (Array.unsafe_get r i *. Array.unsafe_get buf (ck + i))
      done;
      v.(k) <- !acc
    done;
    match pick_pivot ~tol:t.tol v p with
    | None -> false
    | Some j ->
        eliminate_in_place t j;
        true
  end

let to_matrix t =
  Matrix.init t.nvars t.p (fun i k -> t.colbuf.(t.col_off.(k) + i))
