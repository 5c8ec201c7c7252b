module Obs = Tomo_obs

(* Kernel observability: how often the sparse elimination runs and how
   sparse its inputs are, so BENCH_perf.json trajectories show the
   shape of the incidence systems the batched null-space seed
   ({!Nullspace.basis_of_incidence}) hands it. *)
let c_rrefs = Obs.Metrics.counter "sparse_rref_calls"
let h_nnz = Obs.Metrics.histogram "sparse_rref_input_nnz"
let h_density = Obs.Metrics.histogram "sparse_rref_input_density"

type rref = { reduced : Sparse.t; pivot_cols : int list; rank : int }

let default_tol = 1e-10

let rref ?(tol = default_tol) m =
  Obs.Metrics.incr c_rrefs;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.observe h_nnz (float_of_int (Sparse.nnz m));
    Obs.Metrics.observe h_density (Sparse.density m)
  end;
  let a = Sparse.copy m in
  let nr = Sparse.rows a and nc = Sparse.cols a in
  let scale = max 1.0 (Sparse.max_abs a) in
  let threshold = tol *. scale in
  let pivots = ref [] in
  let r = ref 0 in
  let j = ref 0 in
  while !r < nr && !j < nc do
    (* Partial pivoting: largest entry of column !j among rows >= !r,
       first occurrence winning ties — the same scan order as the dense
       reference, over stored entries only.  The probes ride each row's
       monotone cursor: !j only ever advances. *)
    let best = ref !r in
    let best_abs = ref (abs_float (Sparse.probe_mono a !r !j)) in
    for i = !r + 1 to nr - 1 do
      let v = abs_float (Sparse.probe_mono a i !j) in
      if v > !best_abs then begin
        best := i;
        best_abs := v
      end
    done;
    if !best_abs <= threshold then begin
      (* Numerically zero column below row !r: drop its entries (the
         dense reference writes 0.0 over them) and move on. *)
      Sparse.drop_col_entries a !j ~from_row:!r;
      incr j
    end
    else begin
      Sparse.swap_rows a !r !best;
      let pivot = Sparse.get a !r !j in
      Sparse.div_row a !r pivot;
      for i = 0 to nr - 1 do
        if i <> !r then begin
          let factor = Sparse.probe_mono a i !j in
          if factor <> 0.0 then
            Sparse.sub_scaled_row a ~dst:i ~src:!r ~coeff:factor
        end
      done;
      pivots := !j :: !pivots;
      incr r;
      incr j
    end
  done;
  { reduced = a; pivot_cols = List.rev !pivots; rank = !r }

let rank ?tol m = (rref ?tol m).rank

(* Greedy in-order independence over 0/1 incidence rows: [keep.(i)] is
   true iff row [i] is linearly independent of rows [0..i-1] — the set
   an incremental rank test (Algorithm 2 fed row by row) would accept,
   computed here as one forward elimination in row space.  Accepted
   rows are reduced against the pivot rows gathered so far and stored
   sparsely, normalized to a unit leading entry; each incoming row
   costs O(cols + fill) instead of O(cols · nullity).  No row swaps:
   pivot rows keep arrival order, which is what makes the accepted set
   the *greedy* one rather than a pivoting-dependent one. *)
let select_independent ?(tol = 1e-8) ~cols rows =
  let nr = Array.length rows in
  let keep = Array.make nr false in
  if cols > 0 then begin
    Array.iter
      (fun idxs ->
        Array.iter
          (fun j ->
            if j < 0 || j >= cols then
              invalid_arg "Sparse_gauss.select_independent: index out of range")
          idxs)
      rows;
    let scratch = Array.make cols 0.0 in
    let mark = Array.make cols false in
    let touched = Array.make cols 0 in
    let nt = ref 0 in
    let touch j =
      if not mark.(j) then begin
        mark.(j) <- true;
        touched.(!nt) <- j;
        incr nt
      end
    in
    (* piv_cols.(j) / piv_vals.(j): the pivot row whose leading column
       is [j], as parallel (column, value) arrays with value 1 at [j]. *)
    let piv_cols : int array array = Array.make cols [||] in
    let piv_vals : float array array = Array.make cols [||] in
    let has_piv = Array.make cols false in
    for ri = 0 to nr - 1 do
      Array.iter
        (fun j ->
          touch j;
          scratch.(j) <- scratch.(j) +. 1.0)
        rows.(ri);
      let lead = ref (-1) in
      let j = ref 0 in
      while !lead < 0 && !j < cols do
        let x = scratch.(!j) in
        if mark.(!j) && x <> 0.0 then begin
          if has_piv.(!j) then begin
            (* Eliminate against the stored pivot row; its unit leading
               entry makes the cancellation at column !j exact. *)
            let pc = piv_cols.(!j) and pv = piv_vals.(!j) in
            for m = 0 to Array.length pc - 1 do
              let c = Array.unsafe_get pc m in
              touch c;
              scratch.(c) <- scratch.(c) -. (x *. Array.unsafe_get pv m)
            done;
            scratch.(!j) <- 0.0
          end
          else if abs_float x > tol then lead := !j
          else scratch.(!j) <- 0.0
        end;
        if !lead < 0 then incr j
      done;
      if !lead >= 0 then begin
        keep.(ri) <- true;
        let lead = !lead in
        let pivot = scratch.(lead) in
        let nnz = ref 0 in
        for c = lead to cols - 1 do
          if mark.(c) && scratch.(c) <> 0.0 then incr nnz
        done;
        let pc = Array.make !nnz 0 and pv = Array.make !nnz 0.0 in
        let m = ref 0 in
        for c = lead to cols - 1 do
          if mark.(c) && scratch.(c) <> 0.0 then begin
            pc.(!m) <- c;
            pv.(!m) <- scratch.(c) /. pivot;
            incr m
          end
        done;
        piv_cols.(lead) <- pc;
        piv_vals.(lead) <- pv;
        has_piv.(lead) <- true
      end;
      (* Reset the scratch row for the next candidate. *)
      for m = 0 to !nt - 1 do
        let c = touched.(m) in
        scratch.(c) <- 0.0;
        mark.(c) <- false
      done;
      nt := 0
    done
  end;
  keep
