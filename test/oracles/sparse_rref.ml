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
  (* Merge scratch for [sub_scaled_row], recycled by pointer swap with
     the destination row. *)
  mutable sc : int array;
  mutable sv : float array;
}

let empty_row () = { nnz = 0; cols = [||]; vals = [||]; cursor = 0 }
let rows a = a.r
let cols a = a.c

let of_incidence ~rows:r ~cols:c idxs =
  if Array.length idxs <> r then
    invalid_arg "Sparse_rref.of_incidence: row count mismatch";
  let a =
    { r; c; rows = Array.init r (fun _ -> empty_row ()); sc = [||]; sv = [||] }
  in
  Array.iteri
    (fun i idx ->
      let cs = Sparse.incidence_row ~cols:c idx in
      let n = Array.length cs in
      (* Elimination mutates the rows in place, so never keep the
         caller's array. *)
      if n > 0 then
        a.rows.(i) <-
          {
            nnz = n;
            cols = (if cs == idx then Array.copy cs else cs);
            vals = Array.make n 1.0;
            cursor = 0;
          })
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
    sc = [||];
    sv = [||];
  }

(* Index of column [j] in the live prefix of [row], or -1. *)
let find_col row j =
  if row.nnz = 0 || j < row.cols.(0) || j > row.cols.(row.nnz - 1) then -1
  else begin
    let lo = ref 0 and hi = ref (row.nnz - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let cm = row.cols.(mid) in
      if cm = j then found := mid
      else if cm < j then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let get a i j =
  if i < 0 || i >= a.r || j < 0 || j >= a.c then
    invalid_arg "Sparse_rref: index out of range";
  let row = a.rows.(i) in
  let k = find_col row j in
  if k < 0 then 0.0 else row.vals.(k)

(* Monotone probe for the elimination: the pivot column only ever
   advances, so each row resumes its scan from a cursor.  Any mutation
   of the row resets the cursor. *)
let probe_mono a i j =
  let row = a.rows.(i) in
  let n = row.nnz in
  let c = ref row.cursor in
  while !c < n && row.cols.(!c) < j do
    incr c
  done;
  row.cursor <- !c;
  if !c < n && row.cols.(!c) = j then row.vals.(!c) else 0.0

let row_nnz a i =
  if i < 0 || i >= a.r then invalid_arg "Sparse_rref.row_nnz: out of range";
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
        let v = abs_float row.vals.(k) in
        if v > !best then best := v
      done)
    a.rows;
  !best

let swap_rows a i j =
  if i < 0 || i >= a.r || j < 0 || j >= a.r then
    invalid_arg "Sparse_rref.swap_rows: out of range";
  let tmp = a.rows.(i) in
  a.rows.(i) <- a.rows.(j);
  a.rows.(j) <- tmp

(* Apply [f] to every stored entry of row [i], dropping exact zeros. *)
let map_row a i f =
  if i < 0 || i >= a.r then invalid_arg "Sparse_rref: row out of range";
  let row = a.rows.(i) in
  let dst = ref 0 in
  for k = 0 to row.nnz - 1 do
    let v = f row.vals.(k) in
    if v <> 0.0 then begin
      row.cols.(!dst) <- row.cols.(k);
      row.vals.(!dst) <- v;
      incr dst
    end
  done;
  row.nnz <- !dst;
  row.cursor <- 0

let scale_row a i s = map_row a i (fun x -> x *. s)
let div_row a i s = map_row a i (fun x -> x /. s)

let sub_scaled_row a ~dst ~src ~coeff =
  if dst < 0 || dst >= a.r || src < 0 || src >= a.r then
    invalid_arg "Sparse_rref.sub_scaled_row: out of range";
  if dst = src then invalid_arg "Sparse_rref.sub_scaled_row: dst = src";
  let d = a.rows.(dst) and s = a.rows.(src) in
  let cap = d.nnz + s.nnz in
  if Array.length a.sc < cap then begin
    let grown = max cap (max 8 (2 * Array.length a.sc)) in
    a.sc <- Array.make grown 0;
    a.sv <- Array.make grown 0.0
  end;
  let oc = a.sc and ov = a.sv in
  let di = ref 0 and si = ref 0 and o = ref 0 in
  let push c v =
    if v <> 0.0 then begin
      oc.(!o) <- c;
      ov.(!o) <- v;
      incr o
    end
  in
  while !di < d.nnz && !si < s.nnz do
    let dc = d.cols.(!di) and sc = s.cols.(!si) in
    if dc < sc then begin
      push dc d.vals.(!di);
      incr di
    end
    else if sc < dc then begin
      (* The dense reference computes [0.0 −. coeff ·. y] here. *)
      push sc (0.0 -. (coeff *. s.vals.(!si)));
      incr si
    end
    else begin
      push dc (d.vals.(!di) -. (coeff *. s.vals.(!si)));
      incr di;
      incr si
    end
  done;
  while !di < d.nnz do
    push d.cols.(!di) d.vals.(!di);
    incr di
  done;
  while !si < s.nnz do
    push s.cols.(!si) (0.0 -. (coeff *. s.vals.(!si)));
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
    invalid_arg "Sparse_rref.drop_col_entries: out of range";
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

type rref = { reduced : t; pivot_cols : int list; rank : int }

let rref ?(tol = Gauss.default_tol) m =
  let a = copy m in
  let nr = a.r and nc = a.c in
  let threshold = tol *. max 1.0 (max_abs a) in
  let pivots = ref [] in
  let r = ref 0 in
  let j = ref 0 in
  while !r < nr && !j < nc do
    (* Partial pivoting: largest entry of column !j among rows >= !r,
       first occurrence winning ties. *)
    let best = ref !r in
    let best_abs = ref (abs_float (probe_mono a !r !j)) in
    for i = !r + 1 to nr - 1 do
      let v = abs_float (probe_mono a i !j) in
      if v > !best_abs then begin
        best := i;
        best_abs := v
      end
    done;
    if !best_abs <= threshold then begin
      (* Numerically zero column below row !r: the dense reference
         writes 0.0 over it. *)
      drop_col_entries a !j ~from_row:!r;
      incr j
    end
    else begin
      swap_rows a !r !best;
      div_row a !r (get a !r !j);
      for i = 0 to nr - 1 do
        if i <> !r then begin
          let factor = probe_mono a i !j in
          if factor <> 0.0 then sub_scaled_row a ~dst:i ~src:!r ~coeff:factor
        end
      done;
      pivots := !j :: !pivots;
      incr r;
      incr j
    end
  done;
  { reduced = a; pivot_cols = List.rev !pivots; rank = !r }

let basis ?tol ~rows ~cols idxs =
  if cols = 0 then Matrix.make 0 0 0.0
  else if rows = 0 then Matrix.identity cols
  else begin
    let { reduced; pivot_cols; rank } =
      rref ?tol (of_incidence ~rows ~cols idxs)
    in
    let pivot_row = Array.make cols (-1) in
    List.iteri (fun row col -> pivot_row.(col) <- row) pivot_cols;
    let free_cols =
      List.filter (fun j -> pivot_row.(j) < 0) (List.init cols Fun.id)
    in
    let out = Matrix.make cols (cols - rank) 0.0 in
    List.iteri
      (fun k fc ->
        Matrix.set out fc k 1.0;
        Array.iteri
          (fun col piv ->
            if piv >= 0 then Matrix.set out col k (-.get reduced piv fc))
          pivot_row)
      free_cols;
    out
  end
