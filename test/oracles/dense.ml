let rows = Matrix.rows
let cols = Matrix.cols
let get = Matrix.get

(* Diagnostics in the same [file:line: message] shape as the
   Observations_io loaders, so a bad fixture names its rejection site. *)
let fail_at (file, line, _, _) msg =
  invalid_arg (Printf.sprintf "%s:%d: %s" file line msg)

let of_rows rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then
    fail_at __POS__
      "Dense.of_rows: empty row array — the column count cannot be \
       inferred (use Matrix.make 0 c for a 0-row matrix)";
  let c = Array.length rows_arr.(0) in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then
        fail_at __POS__
          (Printf.sprintf
             "Dense.of_rows: ragged rows — row %d has %d columns, row 0 \
              has %d"
             i (Array.length row) c))
    rows_arr;
  Matrix.init r c (fun i j -> rows_arr.(i).(j))

let to_rows m = Array.init (rows m) (fun i -> Array.init (cols m) (get m i))
let copy m = Matrix.init (rows m) (cols m) (get m)

let col m j =
  if j < 0 || j >= cols m then invalid_arg "Dense.col: out of range";
  Array.init (rows m) (fun i -> get m i j)

let columns m = Array.init (cols m) (col m)

let of_columns ~rows:r cs =
  Array.iter
    (fun c ->
      if Array.length c <> r then invalid_arg "Dense.of_columns: ragged")
    cs;
  Matrix.init r (Array.length cs) (fun i j -> cs.(j).(i))

let transpose m = Matrix.init (cols m) (rows m) (fun i j -> get m j i)

let mul a b =
  if cols a <> rows b then invalid_arg "Dense.mul: dimension mismatch";
  let out = Matrix.make (rows a) (cols b) 0.0 in
  for i = 0 to rows a - 1 do
    for k = 0 to cols a - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to cols b - 1 do
          Matrix.set out i j (get out i j +. (aik *. get b k j))
        done
    done
  done;
  out

let mul_vec m v =
  if Array.length v <> cols m then invalid_arg "Dense.mul_vec: length mismatch";
  Array.init (rows m) (fun i ->
      let acc = ref 0.0 in
      for j = 0 to cols m - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

let vec_mul v m =
  if Array.length v <> rows m then invalid_arg "Dense.vec_mul: length mismatch";
  Array.init (cols m) (fun j ->
      let acc = ref 0.0 in
      for i = 0 to rows m - 1 do
        acc := !acc +. (v.(i) *. get m i j)
      done;
      !acc)

let max_abs m =
  let acc = ref 0.0 in
  for i = 0 to rows m - 1 do
    for j = 0 to cols m - 1 do
      acc := max !acc (abs_float (get m i j))
    done
  done;
  !acc

let equal_approx ~tol a b =
  rows a = rows b
  && cols a = cols b
  &&
  let ok = ref true in
  for i = 0 to rows a - 1 do
    for j = 0 to cols a - 1 do
      if not (abs_float (get a i j -. get b i j) <= tol) then ok := false
    done
  done;
  !ok

let swap_cols m j k =
  if j < 0 || j >= cols m || k < 0 || k >= cols m then
    invalid_arg "Dense.swap_cols: out of range";
  if j <> k then
    for i = 0 to rows m - 1 do
      let tmp = get m i j in
      Matrix.set m i j (get m i k);
      Matrix.set m i k tmp
    done
