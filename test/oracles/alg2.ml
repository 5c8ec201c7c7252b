let update_incidence ?(tol = 1e-8) n idxs =
  let nvars = Matrix.rows n and p = Matrix.cols n in
  if p = 0 then None
  else begin
    (* v = r · N: the sum of the rows of N that the row names. *)
    let v = Array.make p 0.0 in
    Array.iter
      (fun i ->
        for k = 0 to p - 1 do
          v.(k) <- v.(k) +. Matrix.get n i k
        done)
      idxs;
    let j = ref 0 in
    for k = 1 to p - 1 do
      if abs_float v.(k) > abs_float v.(!j) then j := k
    done;
    let j = !j in
    if abs_float v.(j) <= tol then None
    else begin
      let out = Matrix.make nvars (p - 1) 0.0 in
      for k = 0 to p - 1 do
        if k <> j then begin
          let dst = if k < j then k else k - 1 in
          let coeff = v.(k) /. v.(j) in
          for i = 0 to nvars - 1 do
            Matrix.set out i dst
              (Matrix.get n i k -. (coeff *. Matrix.get n i j))
          done
        end
      done;
      Some out
    end
  end
