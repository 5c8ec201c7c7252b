type t = { r : int; c : int; data : float array }

let make r c x =
  if r < 0 || c < 0 then invalid_arg "Matrix.make: negative dimension";
  { r; c; data = Array.make (r * c) x }

let init r c f =
  if r < 0 || c < 0 then invalid_arg "Matrix.init: negative dimension";
  let data = Array.make (r * c) 0.0 in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      data.((i * c) + j) <- f i j
    done
  done;
  { r; c; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

(* Diagnostics in the same [file:line: message] shape as the
   Observations_io loaders, so a bad fixture names its rejection site. *)
let fail_at (file, line, _, _) msg =
  invalid_arg (Printf.sprintf "%s:%d: %s" file line msg)

let of_rows rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then
    fail_at __POS__
      "Matrix.of_rows: empty row array — the column count cannot be \
       inferred (use Matrix.make 0 c for a 0-row matrix)";
  let c = Array.length rows_arr.(0) in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then
        fail_at __POS__
          (Printf.sprintf
             "Matrix.of_rows: ragged rows — row %d has %d columns, row 0 \
              has %d"
             i (Array.length row) c))
    rows_arr;
  init r c (fun i j -> rows_arr.(i).(j))

let rows m = m.r
let cols m = m.c

let check m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then
    invalid_arg "Matrix: index out of range"

let get m i j =
  check m i j;
  m.data.((i * m.c) + j)

let set m i j x =
  check m i j;
  m.data.((i * m.c) + j) <- x

let unsafe_get m i j = Array.unsafe_get m.data ((i * m.c) + j)
let unsafe_set m i j x = Array.unsafe_set m.data ((i * m.c) + j) x

let copy m = { m with data = Array.copy m.data }

(* Flat-memory access: rows live contiguously at stride [cols m] inside
   one unboxed float array, so a "row view" is just (buffer, offset) —
   O(1), no copy, aliasing the matrix.  Kernels (Gauss, CGLS, the
   differential harness) fetch [buffer] once and index rows by
   [row_base]; mutating through the buffer mutates the matrix. *)
let buffer m = m.data
let stride m = m.c

let row_base m i =
  if i < 0 || i >= m.r then invalid_arg "Matrix.row_base: out of range";
  i * m.c

let row_view m i = (m.data, row_base m i)

let swap_rows m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.r then
    invalid_arg "Matrix.swap_rows: out of range";
  if i <> j then begin
    let a = i * m.c and b = j * m.c in
    for k = 0 to m.c - 1 do
      let tmp = Array.unsafe_get m.data (a + k) in
      Array.unsafe_set m.data (a + k) (Array.unsafe_get m.data (b + k));
      Array.unsafe_set m.data (b + k) tmp
    done
  end

let row m i =
  if i < 0 || i >= m.r then invalid_arg "Matrix.row: out of range";
  Array.sub m.data (i * m.c) m.c

let col m j =
  if j < 0 || j >= m.c then invalid_arg "Matrix.col: out of range";
  Array.init m.r (fun i -> m.data.((i * m.c) + j))

let to_rows m = Array.init m.r (row m)
let transpose m = init m.c m.r (fun i j -> m.data.((j * m.c) + i))

let mul a b =
  if a.c <> b.r then invalid_arg "Matrix.mul: dimension mismatch";
  let out = make a.r b.c 0.0 in
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let aik = a.data.((i * a.c) + k) in
      if aik <> 0.0 then
        for j = 0 to b.c - 1 do
          out.data.((i * b.c) + j) <-
            out.data.((i * b.c) + j) +. (aik *. b.data.((k * b.c) + j))
        done
    done
  done;
  out

let mul_vec m v =
  if Array.length v <> m.c then invalid_arg "Matrix.mul_vec: length mismatch";
  Array.init m.r (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.c - 1 do
        acc := !acc +. (m.data.((i * m.c) + j) *. v.(j))
      done;
      !acc)

let vec_mul v m =
  if Array.length v <> m.r then invalid_arg "Matrix.vec_mul: length mismatch";
  Array.init m.c (fun j ->
      let acc = ref 0.0 in
      for i = 0 to m.r - 1 do
        acc := !acc +. (v.(i) *. m.data.((i * m.c) + j))
      done;
      !acc)

let max_abs m =
  Array.fold_left (fun acc x -> max acc (abs_float x)) 0.0 m.data

let equal_approx ~tol a b =
  a.r = b.r && a.c = b.c
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= tol) a.data b.data

let swap_cols m j k =
  if j < 0 || j >= m.c || k < 0 || k >= m.c then
    invalid_arg "Matrix.swap_cols: out of range";
  if j <> k then
    for i = 0 to m.r - 1 do
      let tmp = m.data.((i * m.c) + j) in
      m.data.((i * m.c) + j) <- m.data.((i * m.c) + k);
      m.data.((i * m.c) + k) <- tmp
    done

let drop_col m j =
  if j < 0 || j >= m.c then invalid_arg "Matrix.drop_col: out of range";
  init m.r (m.c - 1) (fun i k ->
      if k < j then m.data.((i * m.c) + k) else m.data.((i * m.c) + k + 1))
