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
