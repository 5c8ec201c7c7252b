type rref = { reduced : float array array; pivot_cols : int list; rank : int }

let default_tol = 1e-10

let rref ?(tol = default_tol) ~cols:nc rows =
  let a = Array.map Array.copy rows in
  let nr = Array.length a in
  let scale =
    let m = ref 0.0 in
    Array.iter
      (Array.iter (fun x -> if abs_float x > !m then m := abs_float x))
      a;
    max 1.0 !m
  in
  let threshold = tol *. scale in
  let pivots = ref [] in
  let r = ref 0 and j = ref 0 in
  while !r < nr && !j < nc do
    let best = ref !r in
    let best_abs = ref (abs_float a.(!r).(!j)) in
    for i = !r + 1 to nr - 1 do
      let v = abs_float a.(i).(!j) in
      if v > !best_abs then begin
        best := i;
        best_abs := v
      end
    done;
    if !best_abs <= threshold then begin
      for i = !r to nr - 1 do
        a.(i).(!j) <- 0.0
      done;
      incr j
    end
    else begin
      let tmp = a.(!r) in
      a.(!r) <- a.(!best);
      a.(!best) <- tmp;
      let pr = a.(!r) in
      let pivot = pr.(!j) in
      for k = 0 to nc - 1 do
        pr.(k) <- pr.(k) /. pivot
      done;
      for i = 0 to nr - 1 do
        if i <> !r then begin
          let ri = a.(i) in
          let factor = ri.(!j) in
          if factor <> 0.0 then
            for k = 0 to nc - 1 do
              ri.(k) <- ri.(k) -. (factor *. pr.(k))
            done
        end
      done;
      pivots := !j :: !pivots;
      incr r;
      incr j
    end
  done;
  { reduced = a; pivot_cols = List.rev !pivots; rank = !r }

let rank ?tol ~cols rows = (rref ?tol ~cols rows).rank

let basis ?tol ~cols:n rows =
  let { reduced; pivot_cols; rank } = rref ?tol ~cols:n rows in
  let pivot_row = Array.make n (-1) in
  List.iteri (fun row col -> pivot_row.(col) <- row) pivot_cols;
  let free_cols =
    List.filter (fun j -> pivot_row.(j) < 0) (List.init n Fun.id)
  in
  let out = Array.make_matrix n (n - rank) 0.0 in
  List.iteri
    (fun k fc ->
      out.(fc).(k) <- 1.0;
      Array.iteri
        (fun col piv -> if piv >= 0 then out.(col).(k) <- -.reduced.(piv).(fc))
        pivot_row)
    free_cols;
  out

let of_incidence ~cols idxs =
  Array.map
    (fun row ->
      let a = Array.make cols 0.0 in
      Array.iter (fun j -> a.(j) <- 1.0) row;
      a)
    idxs
