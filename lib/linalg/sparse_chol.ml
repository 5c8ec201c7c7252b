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

(* Counting-sort transpose of a CSR pattern: for each of [n] columns, the
   rows holding it, ascending. *)
let transpose ~n ptr idx =
  let m = Array.length ptr - 1 in
  let t_ptr = Array.make (n + 1) 0 in
  Array.iter (fun j -> t_ptr.(j + 1) <- t_ptr.(j + 1) + 1) idx;
  for j = 0 to n - 1 do
    t_ptr.(j + 1) <- t_ptr.(j + 1) + t_ptr.(j)
  done;
  let fill = Array.sub t_ptr 0 n in
  let t_idx = Array.make (Array.length idx) 0 in
  for i = 0 to m - 1 do
    for p = ptr.(i) to ptr.(i + 1) - 1 do
      let j = idx.(p) in
      t_idx.(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1
    done
  done;
  (t_ptr, t_idx)

(* Aᵀ over elimination positions: [transpose] of A's rows taken in
   elimination order, so each column lists its rows' positions
   ascending. *)
let positions_by_column ~cols a_ptr a_idx perm =
  let m = Array.length perm in
  let p_ptr = Array.make (m + 1) 0 in
  Array.iteri
    (fun k r -> p_ptr.(k + 1) <- p_ptr.(k) + a_ptr.(r + 1) - a_ptr.(r))
    perm;
  let p_idx = Array.make p_ptr.(m) 0 in
  Array.iteri
    (fun k r ->
      Array.blit a_idx a_ptr.(r) p_idx p_ptr.(k) (a_ptr.(r + 1) - a_ptr.(r)))
    perm;
  transpose ~n:cols p_ptr p_idx

(* Exact minimum degree over the row-overlap graph of G.  [adj] holds one
   [w]-word adjacency bit row per node, flat.  Eliminating [v] joins its
   live neighbours into a clique, and those neighbours are exactly the
   pattern of [v]'s column of L.  Returns the order and, per position,
   that pattern as original row indices.  Ties go to the lowest row
   index. *)
let min_degree m w ~word ~mask adj =
  let bits = Bitset.word_bits in
  let deg = Array.make m 0 in
  for i = 0 to m - 1 do
    for q = 0 to w - 1 do
      deg.(i) <- deg.(i) + Bitset.popcount adj.((i * w) + q)
    done
  done;
  let perm = Array.make m 0 and pattern = Array.make m [||] in
  let clear_bit base u =
    let q = base + word.(u) in
    adj.(q) <- adj.(q) land lnot mask.(u)
  in
  for k = 0 to m - 1 do
    let v = ref 0 in
    for i = 1 to m - 1 do
      if Array.unsafe_get deg i < Array.unsafe_get deg !v then v := i
    done;
    let v = !v in
    let bv = v * w in
    let pat = Array.make deg.(v) 0 and c = ref 0 in
    for q = 0 to w - 1 do
      let x = ref adj.(bv + q) in
      while !x <> 0 do
        let b = !x land - !x in
        pat.(!c) <- (q * bits) + Bitset.popcount (b - 1);
        incr c;
        x := !x lxor b
      done
    done;
    deg.(v) <- max_int;
    perm.(k) <- v;
    pattern.(k) <- pat;
    Array.iter
      (fun u ->
        let bu = u * w in
        (* Row u gains v's neighbours it lacked (u itself among them) and
           loses v; only words that gain bits are counted. *)
        let c = ref (deg.(u) - 2) in
        for q = 0 to w - 1 do
          let a = Array.unsafe_get adj (bu + q) in
          let gain = Array.unsafe_get adj (bv + q) land lnot a in
          if gain <> 0 then begin
            Array.unsafe_set adj (bu + q) (a lor gain);
            c := !c + Bitset.popcount gain
          end
        done;
        clear_bit bu u;
        clear_bit bu v;
        deg.(u) <- !c)
      pat
  done;
  (perm, pattern)

(* Cholesky factor of [M = A_s·A_sᵀ], where [A_s] (CSR [s_ptr]/[s_idx],
   transposed [sc_ptr]/[sc_row]) is the system without its dense
   columns, or the whole system when none is left out.  A pivot at or
   below [pivot_tol] times its row's diagonal entry [|row_s|] is
   dropped, or with [~modify] raised by [δ = |row_s|] (1 for a row with
   no entry left), Andersen's modification, which factors
   [M + δ·e_r·e_rᵀ] instead.  Returns the factor over the full rows
   [a_ptr]/[a_idx], without a correction, and the modified pivots as
   (position, δ) by ascending position. *)
let cholesky ~modify ~cols a_ptr a_idx s_ptr s_idx sc_ptr sc_row =
  let m = Array.length a_ptr - 1 in
  let bits = Bitset.word_bits in
  let w = (m + bits - 1) / bits in
  (* Word index and bit of each node, tabulated: [bits] is not a
     compile-time constant, so [/] and [mod] by it would divide. *)
  let word = Array.init m (fun u -> u / bits)
  and mask = Array.init m (fun u -> 1 lsl (u mod bits)) in
  (* Rows sharing a variable are adjacent in M. *)
  let adj = Array.make (m * w) 0 in
  for i = 0 to m - 1 do
    for p = s_ptr.(i) to s_ptr.(i + 1) - 1 do
      let j = s_idx.(p) in
      for q = sc_ptr.(j) to sc_ptr.(j + 1) - 1 do
        let u = sc_row.(q) in
        if u <> i then begin
          let c = (i * w) + word.(u) in
          adj.(c) <- adj.(c) lor mask.(u)
        end
      done
    done
  done;
  let perm, pattern = min_degree m w ~word ~mask adj in
  let inv = Array.make m 0 in
  Array.iteri (fun k r -> inv.(r) <- k) perm;
  (* Row structure of L over positions (the columns holding an entry in
     each row, ascending), then its column structure by transposing
     back, which sorts each column's rows without a comparison sort. *)
  let r_ptr = Array.make (m + 1) 0 in
  Array.iter
    (Array.iter (fun u -> r_ptr.(inv.(u) + 1) <- r_ptr.(inv.(u) + 1) + 1))
    pattern;
  for i = 0 to m - 1 do
    r_ptr.(i + 1) <- r_ptr.(i + 1) + r_ptr.(i)
  done;
  let r_col = Array.make r_ptr.(m) 0 in
  let fill = Array.sub r_ptr 0 m in
  Array.iteri
    (fun k pat ->
      Array.iter
        (fun u ->
          let i = inv.(u) in
          r_col.(fill.(i)) <- k;
          fill.(i) <- fill.(i) + 1)
        pat)
    pattern;
  let l_ptr, l_row = transpose ~n:m r_ptr r_col in
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
    for p = s_ptr.(r) to s_ptr.(r + 1) - 1 do
      let j = Array.unsafe_get s_idx p in
      for q = Array.unsafe_get sc_ptr j to Array.unsafe_get sc_ptr (j + 1) - 1
      do
        let i = Array.unsafe_get inv (Array.unsafe_get sc_row q) in
        if i >= k then Array.unsafe_set x i (Array.unsafe_get x i +. 1.0)
      done
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
    let g_kk = float_of_int (s_ptr.(r + 1) - s_ptr.(r)) in
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
  let at_ptr, at_pos = positions_by_column ~cols a_ptr a_idx perm in
  ( {
      m;
      n = cols;
      perm;
      at_ptr;
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

(* The split: factor [M = A_s·A_sᵀ] of the rows without their [dense]
   columns, with Andersen's modification on the rows that leaves
   dependent, and add the columns back as [G = M' + U·S·Uᵀ].  With
   [M' = L·Lᵀ] and [V = L⁻¹·U], Sherman-Morrison-Woodbury gives
   [G⁻¹ = L⁻ᵀ·(I − V·C⁻¹·Vᵀ)·L⁻¹] with the [q × q] core [C = S + Vᵀ·V].
   [None] when [G] is singular. *)
let split ~cols a_ptr a_idx c_ptr c_row dense =
  let m = Array.length a_ptr - 1 in
  let s_ptr = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    s_ptr.(i + 1) <- s_ptr.(i);
    for p = a_ptr.(i) to a_ptr.(i + 1) - 1 do
      if not dense.(a_idx.(p)) then s_ptr.(i + 1) <- s_ptr.(i + 1) + 1
    done
  done;
  let s_idx = Array.make s_ptr.(m) 0 and f = ref 0 in
  Array.iter
    (fun j ->
      if not dense.(j) then begin
        s_idx.(!f) <- j;
        incr f
      end)
    a_idx;
  let sc_ptr, sc_row = transpose ~n:cols s_ptr s_idx in
  let t, modified =
    cholesky ~modify:true ~cols a_ptr a_idx s_ptr s_idx sc_ptr sc_row
  in
  let hubs = List.filter (fun j -> dense.(j)) (List.init cols Fun.id) in
  let d = List.length hubs in
  (* Leaving out d columns lowers the row rank by at most d: more
     modified pivots than that mean the full rows are dependent. *)
  if List.length modified > d then None
  else begin
    let inv = Array.make m 0 in
    Array.iteri (fun k r -> inv.(r) <- k) t.perm;
    (* U's columns over positions, as (nonzero positions, value). *)
    let u =
      List.map
        (fun j ->
          ( Array.init (c_ptr.(j + 1) - c_ptr.(j)) (fun p ->
                inv.(c_row.(c_ptr.(j) + p))),
            1.0 ))
        hubs
      @ List.map (fun (k, delta) -> ([| k |], sqrt delta)) modified
    in
    (* V = L⁻¹·U, one forward solve per column, keeping the nonzeros. *)
    let col = Array.make m 0.0 in
    let v =
      List.map
        (fun (pos, x) ->
          Array.iter (fun k -> col.(k) <- x) pos;
          forward t col;
          let nz =
            Array.of_list
              (List.filter (fun k -> col.(k) <> 0.0) (List.init m Fun.id))
          in
          let vals = Array.map (fun k -> col.(k)) nz in
          Array.fill col 0 m 0.0;
          (nz, vals))
        u
    in
    let q = d + List.length modified in
    let v_ptr = Array.make (q + 1) 0 in
    List.iteri
      (fun c (nz, _) -> v_ptr.(c + 1) <- v_ptr.(c) + Array.length nz)
      v;
    let v_pos = Array.concat (List.map fst v)
    and v_val = Array.concat (List.map snd v) in
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
  let a_ptr = Array.make (m + 1) 0 in
  Array.iteri (fun i r -> a_ptr.(i + 1) <- a_ptr.(i) + Array.length r) rows;
  let a_idx = Array.make a_ptr.(m) 0 in
  Array.iteri
    (fun i r ->
      Array.iteri
        (fun q j ->
          if j < 0 || j >= cols then
            invalid_arg "Sparse_chol.factor: variable index out of range";
          a_idx.(a_ptr.(i) + q) <- j)
        r)
    rows;
  let c_ptr, c_row = transpose ~n:cols a_ptr a_idx in
  let dense =
    Array.init cols (fun j -> is_dense ~m (c_ptr.(j + 1) - c_ptr.(j)))
  in
  (* A singular G, or no dense column, leaves the correction empty:
     L factors G itself and drops its dependent rows. *)
  let split =
    if Array.exists Fun.id dense then
      split ~cols a_ptr a_idx c_ptr c_row dense
    else None
  in
  let t =
    match split with
    | Some t -> t
    | None ->
        fst
          (cholesky ~modify:false ~cols a_ptr a_idx a_ptr a_idx c_ptr c_row)
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
