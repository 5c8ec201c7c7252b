let choose n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        (* The partial product [acc = C(n-k+i-1, i-1)] grows monotonically,
           so the first step whose multiplication would exceed [max_int]
           proves the final value does too (up to the conservative slack of
           the pre-division factor): saturate before wrapping.  Checking
           [acc' < acc] after the fact is unsound — a wrapped product can
           land positive and larger than [acc]. *)
        let m = n - k + i in
        if acc > max_int / m then max_int else go (acc * m / i) (i + 1)
    in
    go 1 1

(* Standard lexicographic successor on index vectors: advance [idx], a
   size-[k] combination of [0 .. n-1], in place from position [j] down;
   [false] if it was the last one. *)
let rec successor idx ~n k j =
  if j < 0 then false
  else if idx.(j) < n - k + j then begin
    idx.(j) <- idx.(j) + 1;
    for l = j + 1 to k - 1 do
      idx.(l) <- idx.(l - 1) + 1
    done;
    true
  end
  else successor idx ~n k (j - 1)

let iter_combinations xs k f =
  let n = Array.length xs in
  if k >= 0 && k <= n then begin
    let idx = Array.init k (fun i -> i) in
    let emit () = f (Array.map (fun i -> xs.(i)) idx) in
    emit ();
    while successor idx ~n k (k - 1) do
      emit ()
    done
  end

let combinations xs k =
  let acc = ref [] in
  iter_combinations xs k (fun c -> acc := c :: !acc);
  List.rev !acc

let c_subsets_visited = Tomo_obs.Metrics.counter "combin_subsets_visited"

let iter_sized_indices ~n ~size ~limit f =
  let visited = ref 0 in
  if size >= 0 && size <= n then begin
    let idx = Array.init size Fun.id in
    let go = ref true in
    while !go do
      if !visited >= limit then go := false
      else begin
        incr visited;
        match f idx with
        | `Stop -> go := false
        | `Continue -> go := successor idx ~n size (size - 1)
      end
    done
  end;
  Tomo_obs.Metrics.incr ~by:!visited c_subsets_visited;
  !visited

let iter_sized xs ~size ~limit f =
  iter_sized_indices ~n:(Array.length xs) ~size ~limit (fun idx ->
      f (Array.map (fun i -> xs.(i)) idx))

type cursor = {
  n : int;
  max_size : int;
  limit : int;
  idx : int array;
  mutable size : int;
  mutable visited : int;
}

let cursor ~n ~max_size ~limit =
  let max_size = max 0 (min max_size n) in
  { n; max_size; limit; idx = Array.make max_size 0; size = 0; visited = 0 }

(* The first subset of the next size, once the current size is done. *)
let grow c =
  let k = c.size in
  k < c.max_size
  && begin
       for i = 0 to k do
         c.idx.(i) <- i
       done;
       c.size <- k + 1;
       true
     end

let next c =
  if
    c.visited >= c.limit
    || not (successor c.idx ~n:c.n c.size (c.size - 1) || grow c)
  then 0
  else begin
    c.visited <- c.visited + 1;
    Tomo_obs.Metrics.incr c_subsets_visited;
    c.size
  end

let index c i = c.idx.(i)
