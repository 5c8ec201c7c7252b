let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.0
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0.0 xs in
    ss /. float_of_int (n - 1)

let check_no_nan name xs =
  if Array.exists Float.is_nan xs then invalid_arg (name ^ ": NaN sample")

let quantile xs q =
  check_nonempty "Stats.quantile" xs;
  check_no_nan "Stats.quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median xs = quantile xs 0.5

let minimum xs =
  check_nonempty "Stats.minimum" xs;
  check_no_nan "Stats.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty "Stats.maximum" xs;
  check_no_nan "Stats.maximum" xs;
  Array.fold_left max xs.(0) xs

let mean_abs_error a b =
  if Array.length a <> Array.length b then
    invalid_arg "Stats.mean_abs_error: length mismatch";
  check_nonempty "Stats.mean_abs_error" a;
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. abs_float (x -. b.(i))) a;
  !acc /. float_of_int (Array.length a)

let cdf xs ~points =
  check_nonempty "Stats.cdf" xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  (* Count of samples <= x by binary search for the rightmost index. *)
  let count_le x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if sorted.(mid) <= x then go (mid + 1) hi else go lo mid
    in
    go 0 n
  in
  Array.to_list points
  |> List.map (fun x -> (x, float_of_int (count_le x) /. float_of_int n))

let cdf_curve xs ~steps ~max_x =
  if steps <= 0 then invalid_arg "Stats.cdf_curve: non-positive steps";
  let points =
    Array.init (steps + 1) (fun i ->
        max_x *. float_of_int i /. float_of_int steps)
  in
  cdf xs ~points

let histogram ?(out_of_range = `Clamp) xs ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Stats.histogram: non-positive bins";
  if hi <= lo then invalid_arg "Stats.histogram: hi <= lo";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      if not (Float.is_nan x) then begin
        (* floor, not int_of_float: truncation toward zero would send
           any x in (lo - width, lo) to bin 0 as if it were in range. *)
        let b = int_of_float (floor ((x -. lo) /. width)) in
        let in_range = b >= 0 && b < bins in
        match out_of_range with
        | `Drop -> if in_range then counts.(b) <- counts.(b) + 1
        | `Clamp ->
            let b = max 0 (min (bins - 1) b) in
            counts.(b) <- counts.(b) + 1
      end)
    xs;
  counts
