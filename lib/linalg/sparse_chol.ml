module Bitset = Tomo_util.Bitset
module Obs = Tomo_obs

let c_factorizations = Obs.Metrics.counter "sparse_chol_factorizations"
let c_dropped = Obs.Metrics.counter "sparse_chol_dropped_rows"
let h_l_nnz = Obs.Metrics.histogram "sparse_chol_l_nnz"
let h_pivot_ratio = Obs.Metrics.histogram "sparse_chol_pivot_ratio"

(* Relative pivot tolerance: a Schur pivot at or below this share of
   the row's own diagonal entry marks a numerically dependent row. *)
let pivot_tol = 1e-10

type t = {
  m : int;
  n : int;
  (* A in CSR: row i's variables are a_idx.(a_ptr.(i) .. a_ptr.(i+1) - 1). *)
  a_ptr : int array;
  a_idx : int array;
  perm : int array;  (* perm.(k) = the row eliminated k-th *)
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
  (* Rows sharing a variable are adjacent in G. *)
  let c_ptr, c_row = transpose ~n:cols a_ptr a_idx in
  let bits = Bitset.word_bits in
  let w = (m + bits - 1) / bits in
  (* Word index and bit of each node, tabulated: [bits] is not a
     compile-time constant, so [/] and [mod] by it would divide. *)
  let word = Array.init m (fun u -> u / bits)
  and mask = Array.init m (fun u -> 1 lsl (u mod bits)) in
  let adj = Array.make (m * w) 0 in
  for i = 0 to m - 1 do
    for p = a_ptr.(i) to a_ptr.(i + 1) - 1 do
      let j = a_idx.(p) in
      for q = c_ptr.(j) to c_ptr.(j + 1) - 1 do
        let u = c_row.(q) in
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
  (* Left-looking numeric factorization: column k is G's column k
     (rows >= k) minus the earlier columns with an entry in row k.
     [next.(j)] walks column j's entries as k reaches their rows.  Every
     index below comes from the structures built above. *)
  let diag = Array.make m 0.0 in
  let next = Array.sub l_ptr 0 m in
  let x = Array.make m 0.0 in
  let n_dropped = ref 0 in
  for k = 0 to m - 1 do
    let r = perm.(k) in
    for p = a_ptr.(r) to a_ptr.(r + 1) - 1 do
      let j = Array.unsafe_get a_idx p in
      for q = Array.unsafe_get c_ptr j to Array.unsafe_get c_ptr (j + 1) - 1 do
        let i = Array.unsafe_get inv (Array.unsafe_get c_row q) in
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
    let g_kk = float_of_int (a_ptr.(r + 1) - a_ptr.(r)) in
    if d > pivot_tol *. g_kk then begin
      let lkk = sqrt d in
      diag.(k) <- lkk;
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
  let lo = ref infinity and hi = ref 0.0 in
  Array.iter
    (fun d ->
      if d > 0.0 then begin
        lo := Float.min !lo d;
        hi := Float.max !hi d
      end)
    diag;
  let pivot_ratio = if !hi > 0.0 then !hi /. !lo else 1.0 in
  Obs.Metrics.incr c_factorizations;
  Obs.Metrics.incr ~by:!n_dropped c_dropped;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.observe h_l_nnz (float_of_int (l_ptr.(m) + m));
    Obs.Metrics.observe h_pivot_ratio pivot_ratio
  end;
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "rows" (string_of_int m);
    Obs.Trace.add_attr "l_nnz" (string_of_int (l_ptr.(m) + m))
  end;
  {
    m;
    n = cols;
    a_ptr;
    a_idx;
    perm;
    l_ptr;
    l_row;
    l_val;
    diag;
    n_dropped = !n_dropped;
    pivot_ratio;
  }

let solve t b =
  if Array.length b <> t.m then invalid_arg "Sparse_chol.solve: size mismatch";
  let { m; l_ptr; l_row; l_val; diag; perm; a_ptr; a_idx; _ } = t in
  let z = Array.init m (fun k -> b.(perm.(k))) in
  (* L·z = P·b, column by column. *)
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
  done;
  (* Lᵀ·y = z, in place. *)
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
  done;
  (* x = Aᵀ·y. *)
  let x = Array.make t.n 0.0 in
  for k = 0 to m - 1 do
    let yk = z.(k) in
    if yk <> 0.0 then begin
      let r = perm.(k) in
      for p = a_ptr.(r) to a_ptr.(r + 1) - 1 do
        let j = Array.unsafe_get a_idx p in
        Array.unsafe_set x j (Array.unsafe_get x j +. yk)
      done
    end
  done;
  x

let dropped t = t.n_dropped
let l_nnz t = Array.length t.l_row + t.m
let pivot_ratio t = t.pivot_ratio
