module Bitset = Tomo_util.Bitset
module Obs = Tomo_obs

let c_factorizations = Obs.Metrics.counter "sparse_chol_factorizations"
let c_dropped = Obs.Metrics.counter "sparse_chol_dropped_rows"
let c_modified = Obs.Metrics.counter "sparse_chol_modified_pivots"
let h_l_nnz = Obs.Metrics.histogram "sparse_chol_l_nnz"
let h_pivot_ratio = Obs.Metrics.histogram "sparse_chol_pivot_ratio"
let h_dense_cols = Obs.Metrics.histogram "sparse_chol_dense_cols"

(* Relative pivot tolerance: a Schur pivot at or below this share of
   the row's own diagonal entry marks a numerically dependent row. *)
let pivot_tol = 1e-10

(* The same test on the Woodbury core: an LU pivot at or below this
   share of the largest entry of its column of [C] marks [C], and with
   it [G], as singular. *)
let core_tol = 1e-10

(* A column in [count] of the [m] rows is dense, and split out of the
   factor, when count ≥ 2·√m.  Its clique in A·Aᵀ puts about count²/2
   entries into L, and splitting it out adds about 2m entries to the
   correction (the column and, usually, one modified pivot): the
   break-even scales with √m, not with m.  Removing the k densest
   columns of the serve workloads' selections (m = 230-285) stopped
   paying at counts of 34-37, about 2·√m; at paper scale the rule also
   splits Brite's five densest columns (92-116 of 1295 rows), which
   cuts the factor's time there by about 40%, where m/8 keeps them. *)
let is_dense ~m count = count * count >= 4 * m

type t = {
  m : int;
  n : int;
  perm : int array;  (* perm.(k) = the row eliminated k-th *)
  (* Aᵀ over elimination positions: the rows holding variable j are
     eliminated at positions at_pos.(at_ptr.(j) .. at_ptr.(j+1) - 1),
     ascending. *)
  at_ptr : int array;
  at_pos : int array;
  (* Strictly lower part of L by column, over elimination positions;
     row indices ascend within a column.  Flat rather than one array
     per column: on the serve workloads per-column arrays raised the
     mean major heap by a further 3-13%. *)
  l_ptr : int array;
  l_row : int array;
  l_val : float array;
  diag : float array;  (* L_kk; 0.0 marks a dropped row *)
  n_dropped : int;
  pivot_ratio : float;
  (* The correction G = L·Lᵀ + U·S·Uᵀ, empty (q = 0) when L factors G
     itself.  U's first [dense_cols] columns are dense columns of A
     (S = +1), the others √δ·e_k for a modified pivot (S = −1).  The
     solve reads U only through V = L⁻¹·U, which is sparse: column c of
     V holds v_val at positions v_pos over v_ptr.(c) .. v_ptr.(c+1) - 1. *)
  dense_cols : int;
  v_ptr : int array;
  v_pos : int array;
  v_val : float array;
  core : float array;  (* LU of C = S + Vᵀ·V, row-major q × q *)
  core_piv : int array;  (* the row swapped with row k at LU step k *)
}

(* Set bits of a word, as [Bitset.popcount] counts them: a call into
   [Bitset] is not inlined under the dev profile's [-opaque], and the
   ordering counts bits in its innermost loops.  One SWAR pass over the
   63 bits: the top 2-bit field holds bit 62 alone, and the byte sums
   (at most 63) never carry. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* Exact minimum degree over the row-overlap graph of G.  [adj] holds one
   [w]-word adjacency bit row per node, flat.  Eliminating [v] joins its
   live neighbours into a clique, and those neighbours are exactly the
   pattern of [v]'s column of L.  Returns the order, per position that
   pattern as original row indices, and per node the number of patterns
   holding it (its row count in L).  Ties go to the lowest row index.

   The live nodes sit in degree buckets, one [w]-word bit row per
   degree, so the pick is the lowest set bit of the lowest non-empty
   bucket.  A neighbour [u] of [v] loses [v] but gains at least itself
   among [v]'s neighbours, so no degree falls by more than 1 and the
   lowest non-empty bucket after [v] is at least deg v − 1: the search
   restarts there, not at 0. *)
let min_degree m w ~word ~mask adj =
  let bits = Bitset.word_bits in
  let deg = Array.make m 0
  and bucket = Array.make (m * w) 0
  and in_bucket = Array.make m 0 in
  for i = 0 to m - 1 do
    let d = ref 0 in
    for q = 0 to w - 1 do
      d := !d + popcount adj.((i * w) + q)
    done;
    let d = !d in
    deg.(i) <- d;
    let c = (d * w) + word.(i) in
    bucket.(c) <- bucket.(c) lor mask.(i);
    in_bucket.(d) <- in_bucket.(d) + 1
  done;
  let perm = Array.make m 0
  and pattern = Array.make m [||]
  and row_count = Array.make m 0
  and live = Array.make w 0 in
  let lowest = ref 0 in
  for k = 0 to m - 1 do
    while in_bucket.(!lowest) = 0 do
      incr lowest
    done;
    let b0 = !lowest * w in
    let q = ref 0 in
    while bucket.(b0 + !q) = 0 do
      incr q
    done;
    let x = bucket.(b0 + !q) in
    let v = (!q * bits) + popcount ((x land -x) - 1) in
    let dv = !lowest in
    bucket.(b0 + !q) <- x land lnot mask.(v);
    in_bucket.(dv) <- in_bucket.(dv) - 1;
    let bv = v * w in
    (* v's neighbours, and the words holding them *)
    let pat = Array.make dv 0 and c = ref 0 and n_live = ref 0 in
    for q = 0 to w - 1 do
      let x = ref adj.(bv + q) in
      if !x <> 0 then begin
        live.(!n_live) <- q;
        incr n_live
      end;
      while !x <> 0 do
        let b = !x land - !x in
        pat.(!c) <- (q * bits) + popcount (b - 1);
        incr c;
        x := !x lxor b
      done
    done;
    perm.(k) <- v;
    pattern.(k) <- pat;
    for p = 0 to dv - 1 do
      let u = pat.(p) in
      let bu = u * w in
      (* Row u gains v's neighbours it lacked (u itself among them) and
         loses v; only words that gain bits are counted. *)
      let du = deg.(u) in
      let c = ref (du - 2) in
      for t = 0 to !n_live - 1 do
        let q = Array.unsafe_get live t in
        let a = Array.unsafe_get adj (bu + q) in
        let gain = Array.unsafe_get adj (bv + q) land lnot a in
        if gain <> 0 then begin
          Array.unsafe_set adj (bu + q) (a lor gain);
          c := !c + popcount gain
        end
      done;
      let cu = bu + word.(u) and cv = bu + word.(v) in
      adj.(cu) <- adj.(cu) land lnot mask.(u);
      adj.(cv) <- adj.(cv) land lnot mask.(v);
      let c = !c in
      if c <> du then begin
        let o = (du * w) + word.(u) and n = (c * w) + word.(u) in
        bucket.(o) <- bucket.(o) land lnot mask.(u);
        in_bucket.(du) <- in_bucket.(du) - 1;
        bucket.(n) <- bucket.(n) lor mask.(u);
        in_bucket.(c) <- in_bucket.(c) + 1;
        deg.(u) <- c
      end;
      row_count.(u) <- row_count.(u) + 1
    done;
    lowest := max 0 (dv - 1)
  done;
  (perm, pattern, row_count)

(* Cholesky factor of [M = A_s·A_sᵀ], where [A_s] is the system [rows]
   (its columns [c_ptr]/[c_row]) without its [skip] columns, or the whole
   system when none is skipped.  A pivot at or below [pivot_tol] times
   its row's diagonal entry [|row_s|] is dropped, or with [~modify]
   raised by [δ = |row_s|] (1 for a row with no entry left), Andersen's
   modification, which factors [M + δ·e_r·e_rᵀ] instead.  Returns the
   factor over the full rows, without a correction, and the modified
   pivots as (position, δ) by ascending position. *)
let cholesky ~modify ~cols rows c_ptr c_row skip =
  let m = Array.length rows in
  let bits = Bitset.word_bits in
  let w = (m + bits - 1) / bits in
  (* Word index and bit of each node, tabulated: [bits] is not a
     compile-time constant, so [/] and [mod] by it would divide. *)
  let word = Array.make m 0 and mask = Array.make m 0 in
  for u = 0 to m - 1 do
    word.(u) <- u / bits;
    mask.(u) <- 1 lsl (u mod bits)
  done;
  (* Rows sharing a variable are adjacent in M: each pair of a column's
     rows, once. *)
  let adj = Array.make (m * w) 0 in
  for j = 0 to cols - 1 do
    if not skip.(j) then
      for p = c_ptr.(j) to c_ptr.(j + 1) - 1 do
        let i = c_row.(p) in
        let bi = i * w and wi = word.(i) and mi = mask.(i) in
        for q = p + 1 to c_ptr.(j + 1) - 1 do
          let u = c_row.(q) in
          if u <> i then begin
            let c = bi + word.(u) in
            adj.(c) <- adj.(c) lor mask.(u);
            let c = (u * w) + wi in
            adj.(c) <- adj.(c) lor mi
          end
        done
      done
  done;
  let perm, pattern, row_count = min_degree m w ~word ~mask adj in
  let inv = Array.make m 0 in
  for k = 0 to m - 1 do
    inv.(perm.(k)) <- k
  done;
  (* Row structure of L over positions (the columns holding an entry in
     each row, ascending), then its column structure by transposing
     back, which sorts each column's rows without a comparison sort. *)
  let r_ptr = Array.make (m + 1) 0 and l_ptr = Array.make (m + 1) 0 in
  for k = 0 to m - 1 do
    r_ptr.(k + 1) <- r_ptr.(k) + row_count.(perm.(k));
    l_ptr.(k + 1) <- l_ptr.(k) + Array.length pattern.(k)
  done;
  let r_col = Array.make r_ptr.(m) 0 in
  let fill = Array.sub r_ptr 0 m in
  for k = 0 to m - 1 do
    let pat = pattern.(k) in
    for p = 0 to Array.length pat - 1 do
      let i = inv.(pat.(p)) in
      r_col.(fill.(i)) <- k;
      fill.(i) <- fill.(i) + 1
    done
  done;
  let l_row = Array.make l_ptr.(m) 0 in
  let fill = Array.sub l_ptr 0 m in
  for i = 0 to m - 1 do
    for q = r_ptr.(i) to r_ptr.(i + 1) - 1 do
      let k = r_col.(q) in
      l_row.(fill.(k)) <- i;
      fill.(k) <- fill.(k) + 1
    done
  done;
  let l_val = Array.make l_ptr.(m) 0.0 in
  (* Left-looking numeric factorization: column k is M's column k
     (rows >= k) minus the earlier columns with an entry in row k.
     [next.(j)] walks column j's entries as k reaches their rows.  Every
     index below comes from the structures built above. *)
  let diag = Array.make m 0.0 in
  let next = Array.sub l_ptr 0 m in
  let x = Array.make m 0.0 in
  let n_dropped = ref 0 and modified = ref [] in
  let lo = ref infinity and hi = ref 0.0 in
  for k = 0 to m - 1 do
    let r = perm.(k) in
    let row = rows.(r) and kept = ref 0 in
    for p = 0 to Array.length row - 1 do
      let j = Array.unsafe_get row p in
      if not (Array.unsafe_get skip j) then begin
        incr kept;
        for q = Array.unsafe_get c_ptr j to Array.unsafe_get c_ptr (j + 1) - 1
        do
          let i = Array.unsafe_get inv (Array.unsafe_get c_row q) in
          if i >= k then Array.unsafe_set x i (Array.unsafe_get x i +. 1.0)
        done
      end
    done;
    for q = r_ptr.(k) to r_ptr.(k + 1) - 1 do
      let j = Array.unsafe_get r_col q in
      let p0 = Array.unsafe_get next j in
      Array.unsafe_set next j (p0 + 1);
      let lkj = Array.unsafe_get l_val p0 in
      if lkj <> 0.0 then
        for p = p0 to Array.unsafe_get l_ptr (j + 1) - 1 do
          let i = Array.unsafe_get l_row p in
          Array.unsafe_set x i
            (Array.unsafe_get x i -. (Array.unsafe_get l_val p *. lkj))
        done
    done;
    let d = x.(k) in
    x.(k) <- 0.0;
    let g_kk = float_of_int !kept in
    let small = not (d > pivot_tol *. g_kk) in
    let d =
      if small && modify then begin
        let delta = Float.max 1.0 g_kk in
        modified := (k, delta) :: !modified;
        d +. delta
      end
      else d
    in
    if d > pivot_tol *. g_kk then begin
      let lkk = sqrt d in
      diag.(k) <- lkk;
      if not small then begin
        lo := Float.min !lo lkk;
        hi := Float.max !hi lkk
      end;
      for p = l_ptr.(k) to l_ptr.(k + 1) - 1 do
        let i = Array.unsafe_get l_row p in
        Array.unsafe_set l_val p (Array.unsafe_get x i /. lkk);
        Array.unsafe_set x i 0.0
      done
    end
    else begin
      (* Dependent on earlier rows: leave column k of L zero, which
         removes the row from every later column and from the solve. *)
      incr n_dropped;
      for p = l_ptr.(k) to l_ptr.(k + 1) - 1 do
        x.(l_row.(p)) <- 0.0
      done
    end
  done;
  (* Aᵀ over elimination positions: each column lists its rows'
     positions ascending, so it has A's column counts. *)
  let at_pos = Array.make c_ptr.(cols) 0 in
  let fill = Array.sub c_ptr 0 cols in
  for k = 0 to m - 1 do
    let row = rows.(perm.(k)) in
    for p = 0 to Array.length row - 1 do
      let j = row.(p) in
      at_pos.(fill.(j)) <- k;
      fill.(j) <- fill.(j) + 1
    done
  done;
  ( {
      m;
      n = cols;
      perm;
      at_ptr = c_ptr;
      at_pos;
      l_ptr;
      l_row;
      l_val;
      diag;
      n_dropped = !n_dropped;
      pivot_ratio = (if !hi > 0.0 then !hi /. !lo else 1.0);
      dense_cols = 0;
      v_ptr = [| 0 |];
      v_pos = [||];
      v_val = [||];
      core = [||];
      core_piv = [||];
    },
    List.rev !modified )

(* L·z' = z over elimination positions, in place; a dropped row's entry
   comes out 0. *)
let forward t z =
  let { m; l_ptr; l_row; l_val; diag; _ } = t in
  for k = 0 to m - 1 do
    let d = diag.(k) in
    if d = 0.0 then z.(k) <- 0.0
    else begin
      let zk = z.(k) /. d in
      z.(k) <- zk;
      for p = l_ptr.(k) to l_ptr.(k + 1) - 1 do
        let i = Array.unsafe_get l_row p in
        Array.unsafe_set z i
          (Array.unsafe_get z i -. (Array.unsafe_get l_val p *. zk))
      done
    end
  done

(* Lᵀ·z' = z, in place. *)
let backward t z =
  let { m; l_ptr; l_row; l_val; diag; _ } = t in
  for k = m - 1 downto 0 do
    let d = diag.(k) in
    if d <> 0.0 then begin
      let acc = ref z.(k) in
      for p = l_ptr.(k) to l_ptr.(k + 1) - 1 do
        acc :=
          !acc
          -. (Array.unsafe_get l_val p
             *. Array.unsafe_get z (Array.unsafe_get l_row p))
      done;
      z.(k) <- !acc /. d
    end
  done

(* LU with partial pivoting of the row-major [q × q] matrix [c], in
   place: [Some piv], or [None] when a pivot is at or below [core_tol]
   times the largest entry of its column of the original [c]. *)
let lu_factor q c =
  let colmax = Array.make q 0.0 in
  Array.iteri
    (fun i v -> colmax.(i mod q) <- Float.max colmax.(i mod q) (abs_float v))
    c;
  let piv = Array.make q 0 in
  let rec step k =
    if k = q then Some piv
    else begin
      let p = ref k in
      for i = k + 1 to q - 1 do
        if abs_float c.((i * q) + k) > abs_float c.((!p * q) + k) then p := i
      done;
      let p = !p in
      piv.(k) <- p;
      if abs_float c.((p * q) + k) <= core_tol *. colmax.(k) then None
      else begin
        if p <> k then
          for j = 0 to q - 1 do
            let v = c.((k * q) + j) in
            c.((k * q) + j) <- c.((p * q) + j);
            c.((p * q) + j) <- v
          done;
        let ckk = c.((k * q) + k) in
        for i = k + 1 to q - 1 do
          let l = c.((i * q) + k) /. ckk in
          c.((i * q) + k) <- l;
          for j = k + 1 to q - 1 do
            c.((i * q) + j) <- c.((i * q) + j) -. (l *. c.((k * q) + j))
          done
        done;
        step (k + 1)
      end
    end
  in
  step 0

(* s <- C⁻¹·s from [lu_factor]'s output. *)
let lu_solve q lu piv s =
  for k = 0 to q - 1 do
    let p = piv.(k) in
    let v = s.(k) in
    s.(k) <- s.(p);
    s.(p) <- v
  done;
  for i = 1 to q - 1 do
    let acc = ref s.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lu.((i * q) + j) *. s.(j))
    done;
    s.(i) <- !acc
  done;
  for i = q - 1 downto 0 do
    let acc = ref s.(i) in
    for j = i + 1 to q - 1 do
      acc := !acc -. (lu.((i * q) + j) *. s.(j))
    done;
    s.(i) <- !acc /. lu.((i * q) + i)
  done

(* [forward] on a vector that is mostly +0.0, skipping a +0.0 entry: it
   would subtract ±0.0 from the later entries, which leaves them as they
   are.  No entry is ever −0.0 (the vectors start at +0.0 and positive
   values, an exact cancellation gives +0.0 and [diag] is positive), so
   the result is [forward]'s bit for bit. *)
let forward_sparse t z =
  let { m; l_ptr; l_row; l_val; diag; _ } = t in
  for k = 0 to m - 1 do
    let d = diag.(k) in
    if d = 0.0 then z.(k) <- 0.0
    else begin
      let zk = z.(k) in
      if zk <> 0.0 then begin
        let zk = zk /. d in
        z.(k) <- zk;
        for p = l_ptr.(k) to l_ptr.(k + 1) - 1 do
          let i = Array.unsafe_get l_row p in
          Array.unsafe_set z i
            (Array.unsafe_get z i -. (Array.unsafe_get l_val p *. zk))
        done
      end
    end
  done

(* The split: factor [M = A_s·A_sᵀ] of the rows without their [dense]
   columns, with Andersen's modification on the rows that leaves
   dependent, and add the columns back as [G = M' + U·S·Uᵀ].  With
   [M' = L·Lᵀ] and [V = L⁻¹·U], Sherman-Morrison-Woodbury gives
   [G⁻¹ = L⁻ᵀ·(I − V·C⁻¹·Vᵀ)·L⁻¹] with the [q × q] core [C = S + Vᵀ·V].
   [None] when [G] is singular. *)
let split ~cols rows c_ptr c_row dense =
  let t, modified = cholesky ~modify:true ~cols rows c_ptr c_row dense in
  let d = ref 0 in
  for j = 0 to cols - 1 do
    if dense.(j) then incr d
  done;
  let d = !d and n_modified = List.length modified in
  (* Leaving out d columns lowers the row rank by at most d: more
     modified pivots than that mean the full rows are dependent. *)
  if n_modified > d then None
  else begin
    let m = t.m and q = d + n_modified in
    let inv = Array.make m 0 in
    for k = 0 to m - 1 do
      inv.(t.perm.(k)) <- k
    done;
    (* V = L⁻¹·U, one forward solve per column of U, keeping the
       nonzeros.  U's first [d] columns are the dense columns over
       positions, the others √δ at a modified pivot. *)
    let col = Array.make m 0.0 in
    let v_ptr = Array.make (q + 1) 0
    and nz_pos = Array.make q [||]
    and nz_val = Array.make q [||] in
    let keep c =
      forward_sparse t col;
      let n = ref 0 in
      for k = 0 to m - 1 do
        if col.(k) <> 0.0 then incr n
      done;
      let pos = Array.make !n 0 and vals = Array.create_float !n in
      let n = ref 0 in
      for k = 0 to m - 1 do
        if col.(k) <> 0.0 then begin
          pos.(!n) <- k;
          vals.(!n) <- col.(k);
          incr n
        end
      done;
      Array.fill col 0 m 0.0;
      nz_pos.(c) <- pos;
      nz_val.(c) <- vals;
      v_ptr.(c + 1) <- v_ptr.(c) + !n
    in
    let c = ref 0 in
    for j = 0 to cols - 1 do
      if dense.(j) then begin
        for p = c_ptr.(j) to c_ptr.(j + 1) - 1 do
          col.(inv.(c_row.(p))) <- 1.0
        done;
        keep !c;
        incr c
      end
    done;
    List.iteri
      (fun i (k, delta) ->
        col.(k) <- sqrt delta;
        keep (d + i))
      modified;
    let v_pos = Array.concat (Array.to_list nz_pos)
    and v_val = Array.concat (Array.to_list nz_val) in
    (* C = S + Vᵀ·V, each column against a dense copy of V's column. *)
    let core = Array.make (q * q) 0.0 in
    for c' = 0 to q - 1 do
      for p = v_ptr.(c') to v_ptr.(c' + 1) - 1 do
        col.(v_pos.(p)) <- v_val.(p)
      done;
      for c = 0 to q - 1 do
        let acc = ref 0.0 in
        for p = v_ptr.(c) to v_ptr.(c + 1) - 1 do
          acc := !acc +. (v_val.(p) *. col.(v_pos.(p)))
        done;
        let s = if c <> c' then 0.0 else if c < d then 1.0 else -1.0 in
        core.((c * q) + c') <- s +. !acc
      done;
      Array.fill col 0 m 0.0
    done;
    Option.map
      (fun core_piv ->
        { t with dense_cols = d; v_ptr; v_pos; v_val; core; core_piv })
      (lu_factor q core)
  end

let factor ~cols rows =
  Obs.Trace.with_span "sparse_chol.factor" @@ fun () ->
  let m = Array.length rows in
  (* A's columns: the rows holding each variable, ascending. *)
  let c_ptr = Array.make (cols + 1) 0 in
  for i = 0 to m - 1 do
    let row = rows.(i) in
    for p = 0 to Array.length row - 1 do
      let j = row.(p) in
      if j < 0 || j >= cols then
        invalid_arg "Sparse_chol.factor: variable index out of range";
      c_ptr.(j + 1) <- c_ptr.(j + 1) + 1
    done
  done;
  let dense = Array.make cols false and any_dense = ref false in
  for j = 0 to cols - 1 do
    if is_dense ~m c_ptr.(j + 1) then begin
      dense.(j) <- true;
      any_dense := true
    end;
    c_ptr.(j + 1) <- c_ptr.(j + 1) + c_ptr.(j)
  done;
  let c_row = Array.make c_ptr.(cols) 0 in
  let fill = Array.sub c_ptr 0 cols in
  for i = 0 to m - 1 do
    let row = rows.(i) in
    for p = 0 to Array.length row - 1 do
      let j = row.(p) in
      c_row.(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1
    done
  done;
  (* A singular G, or no dense column, leaves the correction empty:
     L factors G itself and drops its dependent rows. *)
  let split =
    if !any_dense then split ~cols rows c_ptr c_row dense else None
  in
  let t =
    match split with
    | Some t -> t
    | None ->
        fst
          (cholesky ~modify:false ~cols rows c_ptr c_row
             (if !any_dense then Array.make cols false else dense))
  in
  let l_nnz = Array.length t.l_row + m and q = Array.length t.v_ptr - 1 in
  Obs.Metrics.incr c_factorizations;
  Obs.Metrics.incr ~by:t.n_dropped c_dropped;
  Obs.Metrics.incr ~by:(q - t.dense_cols) c_modified;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.observe h_l_nnz (float_of_int l_nnz);
    Obs.Metrics.observe h_pivot_ratio t.pivot_ratio;
    Obs.Metrics.observe h_dense_cols (float_of_int t.dense_cols)
  end;
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "rows" (string_of_int m);
    Obs.Trace.add_attr "l_nnz" (string_of_int l_nnz);
    Obs.Trace.add_attr "dense_cols" (string_of_int t.dense_cols);
    Obs.Trace.add_attr "v_nnz" (string_of_int (Array.length t.v_val))
  end;
  t

let solve t b =
  if Array.length b <> t.m then invalid_arg "Sparse_chol.solve: size mismatch";
  let { m; perm; v_ptr; v_pos; v_val; at_ptr; at_pos; _ } = t in
  let z = Array.create_float m in
  for k = 0 to m - 1 do
    z.(k) <- b.(perm.(k))
  done;
  forward t z;
  let q = Array.length v_ptr - 1 in
  if q > 0 then begin
    (* z <- z − V·C⁻¹·Vᵀ·z *)
    let s = Array.create_float q in
    for c = 0 to q - 1 do
      let acc = ref 0.0 in
      for p = v_ptr.(c) to v_ptr.(c + 1) - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get v_val p
             *. Array.unsafe_get z (Array.unsafe_get v_pos p))
      done;
      s.(c) <- !acc
    done;
    lu_solve q t.core t.core_piv s;
    for c = 0 to q - 1 do
      let sc = s.(c) in
      for p = v_ptr.(c) to v_ptr.(c + 1) - 1 do
        let i = Array.unsafe_get v_pos p in
        Array.unsafe_set z i
          (Array.unsafe_get z i -. (Array.unsafe_get v_val p *. sc))
      done
    done
  end;
  backward t z;
  (* x = Aᵀ·y, gathered per variable: x_j adds the nonzero y of its rows
     in ascending elimination position, starting from +0.0 — the order
     a scatter over the positions would add them in. *)
  let x = Array.create_float t.n in
  for j = 0 to t.n - 1 do
    let acc = ref 0.0 in
    for p = at_ptr.(j) to at_ptr.(j + 1) - 1 do
      let yk = Array.unsafe_get z (Array.unsafe_get at_pos p) in
      if yk <> 0.0 then acc := !acc +. yk
    done;
    x.(j) <- !acc
  done;
  x

let dropped t = t.n_dropped
let dense_cols t = t.dense_cols
let l_nnz t = Array.length t.l_row + t.m
let pivot_ratio t = t.pivot_ratio
