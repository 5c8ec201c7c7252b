type row = {
  mutable nnz : int;
  mutable cols : int array; (* strictly increasing over cols.(0..nnz-1) *)
  mutable vals : float array; (* never exactly 0.0 in the live prefix *)
  mutable cursor : int; (* resume point for [probe_mono]; see below *)
}

type t = {
  r : int;
  c : int;
  rows : row array;
  (* Merge scratch for [sub_scaled_row], grown on demand and recycled
     by pointer swap with the destination row, so the elimination inner
     loop allocates nothing once the buffers have warmed up.  Per
     matrix, like every other mutation right: a [t] is only ever
     mutated from one domain. *)
  mutable sc : int array;
  mutable sv : float array;
}

let empty_row () = { nnz = 0; cols = [||]; vals = [||]; cursor = 0 }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Sparse.create: negative dimension";
  {
    r;
    c;
    rows = Array.init r (fun _ -> empty_row ());
    sc = [||];
    sv = [||];
  }

let rows a = a.r
let cols a = a.c

let of_matrix m =
  let r = Matrix.rows m and c = Matrix.cols m in
  let a = create r c in
  (* Single pass per row through shared scratch. *)
  let sc = Array.make (max 1 c) 0 and sv = Array.make (max 1 c) 0.0 in
  for i = 0 to r - 1 do
    let n = ref 0 in
    for j = 0 to c - 1 do
      let v = Matrix.unsafe_get m i j in
      if v <> 0.0 then begin
        Array.unsafe_set sc !n j;
        Array.unsafe_set sv !n v;
        incr n
      end
    done;
    if !n > 0 then
      a.rows.(i) <-
        {
          nnz = !n;
          cols = Array.sub sc 0 !n;
          vals = Array.sub sv 0 !n;
          cursor = 0;
        }
  done;
  a

let to_matrix a =
  let m = Matrix.make a.r a.c 0.0 in
  for i = 0 to a.r - 1 do
    let row = a.rows.(i) in
    for k = 0 to row.nnz - 1 do
      Matrix.unsafe_set m i row.cols.(k) row.vals.(k)
    done
  done;
  m

let of_incidence ~rows:r ~cols:c idxs =
  if Array.length idxs <> r then
    invalid_arg "Sparse.of_incidence: row count mismatch";
  let a = create r c in
  Array.iteri
    (fun i idx ->
      Array.iter
        (fun j ->
          if j < 0 || j >= c then
            invalid_arg "Sparse.of_incidence: index out of range")
        idx;
      let n = Array.length idx in
      if n > 0 then begin
        let cs = Array.copy idx in
        let sorted = ref true in
        for k = 1 to n - 1 do
          if cs.(k - 1) >= cs.(k) then sorted := false
        done;
        if not !sorted then Array.sort compare cs;
        for k = 1 to n - 1 do
          if cs.(k - 1) = cs.(k) then
            invalid_arg "Sparse.of_incidence: duplicate index"
        done;
        a.rows.(i) <-
          { nnz = n; cols = cs; vals = Array.make n 1.0; cursor = 0 }
      end)
    idxs;
  a

let copy a =
  {
    a with
    rows =
      Array.map
        (fun row ->
          {
            nnz = row.nnz;
            cols = Array.sub row.cols 0 row.nnz;
            vals = Array.sub row.vals 0 row.nnz;
            cursor = 0;
          })
        a.rows;
    (* Private scratch: sharing the merge buffers across copies would
       let two matrices on two domains race on them. *)
    sc = [||];
    sv = [||];
  }

(* Index of column [j] in the live prefix of [row], or -1.  The range
   precheck matters: the elimination kernel probes every row once per
   pivot column, and on banded systems almost every probe misses the
   row's column span entirely. *)
let find_col row j =
  if
    row.nnz = 0
    || j < Array.unsafe_get row.cols 0
    || j > Array.unsafe_get row.cols (row.nnz - 1)
  then -1
  else begin
    let lo = ref 0 and hi = ref (row.nnz - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let cm = Array.unsafe_get row.cols mid in
      if cm = j then found := mid
      else if cm < j then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let get a i j =
  if i < 0 || i >= a.r || j < 0 || j >= a.c then
    invalid_arg "Sparse: index out of range";
  let row = a.rows.(i) in
  let k = find_col row j in
  if k < 0 then 0.0 else row.vals.(k)

(* Monotone probe for the elimination kernel: the pivot column only ever
   advances, so each row keeps a cursor into its sorted column list and
   resumes from it — amortized O(1) per probe against O(log nnz) for
   [get].  Contract: per row, successive [probe_mono] calls use
   non-decreasing [j]; any mutation of the row resets its cursor, after
   which the lazy re-advance restores the invariant. *)
let probe_mono a i j =
  let row = Array.unsafe_get a.rows i in
  let n = row.nnz in
  let c = ref row.cursor in
  while !c < n && Array.unsafe_get row.cols !c < j do
    incr c
  done;
  row.cursor <- !c;
  if !c < n && Array.unsafe_get row.cols !c = j then
    Array.unsafe_get row.vals !c
  else 0.0

let row_nnz a i =
  if i < 0 || i >= a.r then invalid_arg "Sparse.row_nnz: out of range";
  a.rows.(i).nnz

let nnz a = Array.fold_left (fun acc row -> acc + row.nnz) 0 a.rows

let density a =
  let total = a.r * a.c in
  if total = 0 then 0.0 else float_of_int (nnz a) /. float_of_int total

let max_abs a =
  let best = ref 0.0 in
  Array.iter
    (fun row ->
      for k = 0 to row.nnz - 1 do
        let v = abs_float (Array.unsafe_get row.vals k) in
        if v > !best then best := v
      done)
    a.rows;
  !best

let iter_row a i f =
  if i < 0 || i >= a.r then invalid_arg "Sparse.iter_row: out of range";
  let row = a.rows.(i) in
  for k = 0 to row.nnz - 1 do
    f row.cols.(k) row.vals.(k)
  done

let row_view a i =
  if i < 0 || i >= a.r then invalid_arg "Sparse.row_view: out of range";
  let row = a.rows.(i) in
  (row.cols, row.vals, row.nnz)

(* ------------------------------------------------------------------ *)
(* Frozen flat CSR snapshot                                            *)
(* ------------------------------------------------------------------ *)

(* The mutable per-row representation above is what elimination needs
   (O(1) row swaps, fill-in per row); iteration-heavy read-only kernels
   (CGLS runs hundreds of passes over an unchanging system) want the
   classic flat CSR instead: all columns and values packed into two
   contiguous unboxed arrays, rows delimited by [row_ptr].  One pointer
   chase per *solve* instead of two per *row per iteration*, and the
   inner loops stream cache-line-adjacent memory. *)
type csr = {
  csr_rows : int;
  csr_cols : int;
  row_ptr : int array; (* length csr_rows + 1 *)
  col_idx : int array; (* length nnz, row-major, per-row ascending *)
  values : float array; (* parallel to col_idx *)
}

let to_csr a =
  let row_ptr = Array.make (a.r + 1) 0 in
  for i = 0 to a.r - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + a.rows.(i).nnz
  done;
  let n = row_ptr.(a.r) in
  let col_idx = Array.make (max 1 n) 0 in
  let values = Array.make (max 1 n) 0.0 in
  for i = 0 to a.r - 1 do
    let row = a.rows.(i) in
    Array.blit row.cols 0 col_idx row_ptr.(i) row.nnz;
    Array.blit row.vals 0 values row_ptr.(i) row.nnz
  done;
  { csr_rows = a.r; csr_cols = a.c; row_ptr; col_idx; values }

let swap_rows a i j =
  if i < 0 || i >= a.r || j < 0 || j >= a.r then
    invalid_arg "Sparse.swap_rows: out of range";
  if i <> j then begin
    let tmp = a.rows.(i) in
    a.rows.(i) <- a.rows.(j);
    a.rows.(j) <- tmp
  end

let scale_row a i s =
  if i < 0 || i >= a.r then invalid_arg "Sparse.scale_row: out of range";
  let row = a.rows.(i) in
  let dst = ref 0 in
  for k = 0 to row.nnz - 1 do
    let v = Array.unsafe_get row.vals k *. s in
    if v <> 0.0 then begin
      row.cols.(!dst) <- Array.unsafe_get row.cols k;
      row.vals.(!dst) <- v;
      incr dst
    end
  done;
  row.nnz <- !dst;
  row.cursor <- 0

let div_row a i s =
  if i < 0 || i >= a.r then invalid_arg "Sparse.div_row: out of range";
  let row = a.rows.(i) in
  let dst = ref 0 in
  for k = 0 to row.nnz - 1 do
    let v = Array.unsafe_get row.vals k /. s in
    if v <> 0.0 then begin
      row.cols.(!dst) <- Array.unsafe_get row.cols k;
      row.vals.(!dst) <- v;
      incr dst
    end
  done;
  row.nnz <- !dst;
  row.cursor <- 0

let sub_scaled_row a ~dst ~src ~coeff =
  if dst < 0 || dst >= a.r || src < 0 || src >= a.r then
    invalid_arg "Sparse.sub_scaled_row: out of range";
  if dst = src then invalid_arg "Sparse.sub_scaled_row: dst = src";
  let d = a.rows.(dst) and s = a.rows.(src) in
  let cap = d.nnz + s.nnz in
  (* Merge into the matrix scratch, then swap buffers with the
     destination row: zero allocation per call once the scratch has
     grown to the working fill level. *)
  if Array.length a.sc < cap then begin
    let grown = max cap (max 8 (2 * Array.length a.sc)) in
    a.sc <- Array.make grown 0;
    a.sv <- Array.make grown 0.0
  end;
  let oc = a.sc and ov = a.sv in
  let di = ref 0 and si = ref 0 and o = ref 0 in
  let push c v =
    if v <> 0.0 then begin
      Array.unsafe_set oc !o c;
      Array.unsafe_set ov !o v;
      incr o
    end
  in
  while !di < d.nnz && !si < s.nnz do
    let dc = Array.unsafe_get d.cols !di
    and sc = Array.unsafe_get s.cols !si in
    if dc < sc then begin
      push dc (Array.unsafe_get d.vals !di);
      incr di
    end
    else if sc < dc then begin
      (* The dense kernel computes [0.0 −. coeff ·. y] here. *)
      push sc (0.0 -. (coeff *. Array.unsafe_get s.vals !si));
      incr si
    end
    else begin
      push dc
        (Array.unsafe_get d.vals !di -. (coeff *. Array.unsafe_get s.vals !si));
      incr di;
      incr si
    end
  done;
  while !di < d.nnz do
    push (Array.unsafe_get d.cols !di) (Array.unsafe_get d.vals !di);
    incr di
  done;
  while !si < s.nnz do
    push
      (Array.unsafe_get s.cols !si)
      (0.0 -. (coeff *. Array.unsafe_get s.vals !si));
    incr si
  done;
  a.sc <- d.cols;
  a.sv <- d.vals;
  d.cols <- oc;
  d.vals <- ov;
  d.nnz <- !o;
  d.cursor <- 0

let drop_col_entries a j ~from_row =
  if j < 0 || j >= a.c then
    invalid_arg "Sparse.drop_col_entries: out of range";
  for i = max 0 from_row to a.r - 1 do
    let row = a.rows.(i) in
    let k = find_col row j in
    if k >= 0 then begin
      for m = k to row.nnz - 2 do
        row.cols.(m) <- row.cols.(m + 1);
        row.vals.(m) <- row.vals.(m + 1)
      done;
      row.nnz <- row.nnz - 1;
      row.cursor <- 0
    end
  done

let pp ppf a =
  Format.fprintf ppf "@[<v>%dx%d, %d nnz" a.r a.c (nnz a);
  for i = 0 to a.r - 1 do
    iter_row a i (fun j v -> Format.fprintf ppf "@,(%d, %d) = %g" i j v)
  done;
  Format.fprintf ppf "@]"
