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
    (* piv_cols.(j) / piv_vals.(j): the pivot row whose leading column
       is [j], as parallel (column, value) arrays with value 1 at [j]. *)
    let piv_cols : int array array = Array.make cols [||] in
    let piv_vals : float array array = Array.make cols [||] in
    let has_piv = Array.make cols false in
    for ri = 0 to nr - 1 do
      (* [mark] / [touched] record the columns the scratch row holds,
         so the reset below visits only those. *)
      let idxs = rows.(ri) in
      for m = 0 to Array.length idxs - 1 do
        let j = idxs.(m) in
        if not mark.(j) then begin
          mark.(j) <- true;
          touched.(!nt) <- j;
          incr nt
        end;
        scratch.(j) <- scratch.(j) +. 1.0
      done;
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
              if not (Array.unsafe_get mark c) then begin
                Array.unsafe_set mark c true;
                Array.unsafe_set touched !nt c;
                incr nt
              end;
              Array.unsafe_set scratch c
                (Array.unsafe_get scratch c -. (x *. Array.unsafe_get pv m))
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
