let strictly_ascending r =
  let ok = ref true in
  for k = 1 to Array.length r - 1 do
    if r.(k - 1) >= r.(k) then ok := false
  done;
  !ok

let incidence_row ~cols r =
  Array.iter
    (fun j ->
      if j < 0 || j >= cols then
        invalid_arg "Sparse.incidence_row: index out of range")
    r;
  if strictly_ascending r then r
  else begin
    let s = Array.copy r in
    Array.sort compare s;
    if not (strictly_ascending s) then
      invalid_arg "Sparse.incidence_row: duplicate index";
    s
  end
