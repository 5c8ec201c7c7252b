let default_tol = 1e-8

module Obs = Tomo_obs
module Rng = Tomo_util.Rng

(* Algorithm 2 observability: how often a basis is computed from
   scratch (the batched seed), how often the paper's incremental update
   advances it, and how many candidate rows the update rejects as
   dependent. *)
let c_recomputes = Obs.Metrics.counter "nullspace_recomputes"
let c_incremental = Obs.Metrics.counter "nullspace_incremental_updates"
let c_rejections = Obs.Metrics.counter "nullspace_dependent_rejections"

(* Seed-elimination observability: how often it runs and how sparse the
   incidence systems it receives are. *)
let c_rrefs = Obs.Metrics.counter "sparse_rref_calls"
let h_nnz = Obs.Metrics.histogram "sparse_rref_input_nnz"
let h_density = Obs.Metrics.histogram "sparse_rref_input_density"

(* Witness-prefilter observability: how many candidate rows the random
   projections rejected without touching the basis, how many fell
   through to the exact test, and how much work each witness dot cost
   (the number of summed entries). *)
let c_wit_rejections = Obs.Metrics.counter "alg1_witness_rejections"
let c_wit_passes = Obs.Metrics.counter "alg1_witness_passes"
let h_wit_nnz = Obs.Metrics.histogram "witness_dot_nnz"

(* Pivot selection for the tracker: the index of the largest |v.(k)|
   over v.(0..p-1), or None when that maximum is within [tol] of zero
   (the row is dependent; the counters are bumped here so the caller
   stays branch-free). *)
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

(* ------------------------------------------------------------------ *)
(* In-place tracker                                                     *)
(* ------------------------------------------------------------------ *)

(* Algorithm 1 feeds thousands of candidate rows through the update; a
   functional update allocates an [nvars × (p-1)] matrix per accepted
   row (the reference in test/oracles does exactly that).  The
   tracker instead keeps the basis as [p] column vectors and eliminates
   in place: an accepted row costs one pass over the touched columns and
   zero allocation, and a per-variable non-zero count (the Hamming
   weight Algorithm 1 sorts by) is maintained incrementally during the
   same pass. *)
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

(* An empty tracker over [nvars] variables with room for [p] columns:
   its constructor writes column [k] at offset [k · nvars] of [colbuf]
   and then {!absorb}s it. *)
let alloc ~tol ~witness_k ~nvars ~p =
  let k = match witness_k with Some k -> min (max 0 k) 16 | None -> default_k in
  {
    nvars;
    tol;
    (* well below the witness noise a truly independent row produces *)
    wtol = tol *. 1e-4;
    p;
    colbuf = Array.make (max 1 (p * nvars)) 0.0;
    col_off = Array.init (max 1 p) (fun k -> k * nvars);
    v = Array.make (max 1 (max p nvars)) 0.0;
    weights = Array.make nvars 0;
    idx = Array.make (max 1 nvars) 0;
    wit_u = Array.init k (fun _ -> Array.make (max 1 nvars) 0.0);
    wit_g = Array.init k (fun c -> draw_witness_g ~dim:nvars ~columns:p c);
    wit_dot = Array.make (max 1 k) 0.0;
  }

(* Column [k], once written, joins the weights and the witnesses:
   [u_c.(i)] starts at [+0.0] and gains [g_c.(k) · n_k.(i)] for
   ascending [k], the sum {!witness_defect} recomputes.  An exact-zero
   entry is skipped: adding [g · ±0.0] leaves a sum that started at
   [+0.0] unchanged, since such a sum is never [-0.0]. *)
let absorb t k =
  let base = t.col_off.(k) and tol = t.tol in
  for i = 0 to t.nvars - 1 do
    let x = Array.unsafe_get t.colbuf (base + i) in
    if abs_float x > tol then t.weights.(i) <- t.weights.(i) + 1;
    if x <> 0.0 then
      for c = 0 to Array.length t.wit_u - 1 do
        let u = Array.unsafe_get t.wit_u c in
        Array.unsafe_set u i
          (Array.unsafe_get u i +. (Array.unsafe_get t.wit_g.(c) k *. x))
      done
  done

let tracker ?(tol = default_tol) ?witness_k nvars =
  if nvars < 0 then invalid_arg "Nullspace.tracker: negative dimension";
  let t = alloc ~tol ~witness_k ~nvars ~p:nvars in
  for k = 0 to nvars - 1 do
    t.colbuf.((k * nvars) + k) <- 1.0;
    absorb t k
  done;
  t

let of_columns ?(tol = default_tol) ?witness_k ~nvars cols =
  if nvars < 0 then invalid_arg "Nullspace.of_columns: negative dimension";
  let t = alloc ~tol ~witness_k ~nvars ~p:(Array.length cols) in
  Array.iteri
    (fun k col ->
      if Array.length col <> nvars then
        invalid_arg "Nullspace.of_columns: column length mismatch";
      Array.blit col 0 t.colbuf (k * nvars) nvars;
      absorb t k)
    cols;
  t

let columns t =
  Array.init t.p (fun k -> Array.sub t.colbuf t.col_off.(k) t.nvars)

let determined ?(tol = 1e-6) t =
  let flags = Array.make t.nvars true in
  for k = 0 to t.p - 1 do
    let base = t.col_off.(k) in
    for i = 0 to t.nvars - 1 do
      if not (abs_float (Array.unsafe_get t.colbuf (base + i)) <= tol) then
        flags.(i) <- false
    done
  done;
  flags

(* The seed elimination: Gauss–Jordan over a 0/1 incidence system,
   making the floating-point operations of the sorted-merge sparse
   kernel in test/oracles on every entry, in the same order.  The rows
   are dense-addressed in one flat [rows × cols] block; an exact zero
   is stored as [+0.0], which is what an absent sparse entry reads as,
   so the basis written into the tracker below is bit-identical to the
   reference's, zero signs included.  Row swaps only permute [row_at] /
   [pos_of].  Per-column occupancy lists (the physical rows that may
   hold a nonzero in the column; stale entries are skipped by value)
   keep the pivot search and the updates of each pivot proportional to
   the rows holding its column, so the work follows the fill, as the
   sparse kernel's does. *)
let of_incidence ?(tol = default_tol) ?witness_k ~rows ~cols idxs =
  Obs.Metrics.incr c_recomputes;
  if cols = 0 || rows = 0 then tracker ~tol ?witness_k cols
  else begin
    if Array.length idxs <> rows then
      invalid_arg "Nullspace.of_incidence: row count mismatch";
    let idxs = Array.map (Sparse.incidence_row ~cols) idxs in
    let nr = rows and nc = cols in
    let a = Array.make (nr * nc) 0.0 in
    let occ = Array.make nc [||] and occ_n = Array.make nc 0 in
    let occupy c p =
      let n = occ_n.(c) in
      if n = Array.length occ.(c) then begin
        let grown = Array.make (max 4 (2 * n)) 0 in
        Array.blit occ.(c) 0 grown 0 n;
        occ.(c) <- grown
      end;
      Array.unsafe_set occ.(c) n p;
      occ_n.(c) <- n + 1
    in
    (* [last.(p)]: no column right of it holds a nonzero in row [p]. *)
    let last = Array.make nr (-1) in
    let nnz = ref 0 in
    for p = 0 to nr - 1 do
      let r = idxs.(p) in
      let k = Array.length r in
      nnz := !nnz + k;
      for m = 0 to k - 1 do
        let c = r.(m) in
        a.((p * nc) + c) <- 1.0;
        occupy c p
      done;
      if k > 0 then last.(p) <- r.(k - 1)
    done;
    Obs.Metrics.incr c_rrefs;
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.observe h_nnz (float_of_int !nnz);
      Obs.Metrics.observe h_density
        (float_of_int !nnz /. float_of_int (nr * nc))
    end;
    (* Every input entry is 1.0, so the pivot threshold [tol] scaled
       by the largest absolute entry (at least 1) is [tol] itself. *)
    let threshold = tol in
    let row_at = Array.init nr Fun.id and pos_of = Array.init nr Fun.id in
    (* The pivot row's nonzeros, gathered once per pivot. *)
    let g_col = Array.make nc 0 and g_val = Array.make nc 0.0 in
    let pivot_row = Array.make nc (-1) in
    let r = ref 0 and j = ref 0 in
    while !r < nr && !j < nc do
      let jc = !j and rr = !r in
      let list = occ.(jc) and n_occ = occ_n.(jc) in
      (* Partial pivoting: the largest |entry| of column [jc] among
         logical rows >= [rr], the earliest row winning a tie — what a
         scan in row order with a strict [>] picks. *)
      let best = ref rr in
      let best_abs = ref (abs_float a.((row_at.(rr) * nc) + jc)) in
      for m = 0 to n_occ - 1 do
        let p = Array.unsafe_get list m in
        let q = Array.unsafe_get pos_of p in
        if q > rr then begin
          let v = abs_float (Array.unsafe_get a ((p * nc) + jc)) in
          if v > !best_abs || (v = !best_abs && q < !best) then begin
            best := q;
            best_abs := v
          end
        end
      done;
      if !best_abs <= threshold then begin
        (* Numerically zero column below row [rr]: zero it and move
           on. *)
        for m = 0 to n_occ - 1 do
          let p = Array.unsafe_get list m in
          if Array.unsafe_get pos_of p >= rr then
            Array.unsafe_set a ((p * nc) + jc) 0.0
        done;
        incr j
      end
      else begin
        let pr = row_at.(!best) in
        row_at.(!best) <- row_at.(rr);
        pos_of.(row_at.(rr)) <- !best;
        row_at.(rr) <- pr;
        pos_of.(pr) <- rr;
        (* Normalise.  Columns left of [jc] are zero in this row: each
           was a pivot column, eliminated, or zeroed while the row sat
           at or below its position. *)
        let base = pr * nc in
        let pivot = a.(base + jc) in
        let ng = ref 0 in
        for c = jc to last.(pr) do
          let x = Array.unsafe_get a (base + c) in
          if x <> 0.0 then begin
            let y = x /. pivot in
            if y <> 0.0 then begin
              Array.unsafe_set a (base + c) y;
              g_col.(!ng) <- c;
              g_val.(!ng) <- y;
              incr ng
            end
            else Array.unsafe_set a (base + c) 0.0
          end
        done;
        let ng = !ng in
        let reach = if ng = 0 then -1 else g_col.(ng - 1) in
        (* Eliminate column [jc] from every other row holding it.
           Fill-in lands in columns right of [jc], so [list] does not
           grow during the sweep. *)
        for m = 0 to n_occ - 1 do
          let p = Array.unsafe_get list m in
          if p <> pr then begin
            let bp = p * nc in
            let factor = Array.unsafe_get a (bp + jc) in
            if factor <> 0.0 then begin
              if reach > last.(p) then last.(p) <- reach;
              for k = 0 to ng - 1 do
                let c = Array.unsafe_get g_col k in
                let old = Array.unsafe_get a (bp + c) in
                let nw = old -. (factor *. Array.unsafe_get g_val k) in
                if nw = 0.0 then Array.unsafe_set a (bp + c) 0.0
                else begin
                  Array.unsafe_set a (bp + c) nw;
                  if old = 0.0 then occupy c p
                end
              done
            end
          end
        done;
        pivot_row.(jc) <- rr;
        incr r;
        incr j
      end
    done;
    (* Basis vector [k] sets the [k]-th free column [free.(k)] to 1 and
       each pivot variable to minus its reduced entry in that column
       ([-0.0] where that entry is zero); every other entry stays
       [+0.0].  Each column is written straight into the tracker's
       block and absorbed. *)
    let rank = !r in
    let free = Array.make (nc - rank) 0 in
    let pivots = Array.make rank 0 and piv_base = Array.make rank 0 in
    let nf = ref 0 and np = ref 0 in
    for c = 0 to nc - 1 do
      if pivot_row.(c) < 0 then begin
        free.(!nf) <- c;
        incr nf
      end
      else begin
        pivots.(!np) <- c;
        piv_base.(!np) <- row_at.(pivot_row.(c)) * nc;
        incr np
      end
    done;
    let t = alloc ~tol ~witness_k ~nvars:nc ~p:(nc - rank) in
    Array.iteri
      (fun k fc ->
        let base = k * nc in
        t.colbuf.(base + fc) <- 1.0;
        for m = 0 to rank - 1 do
          t.colbuf.(base + pivots.(m)) <- -.a.(piv_base.(m) + fc)
        done;
        absorb t k)
      free;
    t
  end

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
     (the functional reference keeps order too, so both yield the same
     basis).  Only offsets move — no floats are copied; the freed slice
     parks at the tail for potential reuse. *)
  for k = j to p - 2 do
    t.col_off.(k) <- t.col_off.(k + 1)
  done;
  t.col_off.(p - 1) <- nj;
  t.p <- p - 1

(* The O(k · nnz) fast path: every witness dot within [wtol] ⇒ reject
   without touching the basis.  An incidence row's dot with a witness
   [u_c] is the sum of its [idxs] entries of [u_c], taken in [idxs]
   order.  Fills [t.wit_dot] for {!eliminate_in_place}. *)
let witness_rejects t idxs =
  let k = Array.length t.wit_u in
  if k = 0 then false
  else begin
    let nnz = Array.length idxs in
    if Obs.Metrics.enabled () then
      Obs.Metrics.observe h_wit_nnz (float_of_int nnz);
    let all_small = ref true in
    for c = 0 to k - 1 do
      let u = Array.unsafe_get t.wit_u c in
      let d = ref 0.0 in
      for m = 0 to nnz - 1 do
        d := !d +. Array.unsafe_get u (Array.unsafe_get idxs m)
      done;
      Array.unsafe_set t.wit_dot c !d;
      if abs_float !d > t.wtol then all_small := false
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

let add_incidence t idxs =
  for m = 0 to Array.length idxs - 1 do
    let i = idxs.(m) in
    if i < 0 || i >= t.nvars then
      invalid_arg "Nullspace.add_incidence: index out of range"
  done;
  let p = t.p in
  if p = 0 then false
  else if witness_rejects t idxs then false
  else begin
    let v = t.v in
    Array.fill v 0 p 0.0;
    let buf = t.colbuf and off = t.col_off in
    for m = 0 to Array.length idxs - 1 do
      let i = Array.unsafe_get idxs m in
      for k = 0 to p - 1 do
        v.(k) <- v.(k) +. Array.unsafe_get buf (Array.unsafe_get off k + i)
      done
    done;
    match pick_pivot ~tol:t.tol v p with
    | None -> false
    | Some j ->
        eliminate_in_place t j;
        true
  end
