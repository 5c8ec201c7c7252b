module Bitset = Tomo_util.Bitset

type t = {
  t_intervals : int;
  path_good : Bitset.t array;
  counts : int array;  (* per path: number of good intervals *)
  log_prob : float array;
      (* count -> its smoothed log-frequency: the T + 1 values a
         right-hand side can take, so building one takes no [log] *)
}

let log_frequency ~t_intervals count =
  log ((float_of_int count +. 0.5) /. (float_of_int t_intervals +. 1.0))

let make ~t_intervals ~path_good =
  if t_intervals <= 0 then invalid_arg "Observations.make: no intervals";
  if Array.length path_good = 0 then
    invalid_arg "Observations.make: no paths";
  Array.iter
    (fun b ->
      if Bitset.length b <> t_intervals then
        invalid_arg "Observations.make: status row has wrong capacity")
    path_good;
  {
    t_intervals;
    path_good;
    counts = Array.map Bitset.count path_good;
    log_prob = Array.init (t_intervals + 1) (log_frequency ~t_intervals);
  }

let create ~t_intervals ~n_paths =
  if n_paths <= 0 then invalid_arg "Observations.create: no paths";
  make ~t_intervals
    ~path_good:(Array.init n_paths (fun _ -> Bitset.create t_intervals))

let t_intervals t = t.t_intervals
let n_paths t = Array.length t.path_good

let check_path t p =
  if p < 0 || p >= n_paths t then
    invalid_arg "Observations: path out of range"

let check_interval t i =
  if i < 0 || i >= t.t_intervals then
    invalid_arg "Observations: interval out of range"

let good_in_interval t ~path ~interval =
  check_path t path;
  Bitset.get t.path_good.(path) interval

(* Set a cell to [now], which it does not hold yet, and move its path's
   good count with it. *)
let change t ~interval p now =
  Bitset.assign t.path_good.(p) interval now;
  t.counts.(p) <- t.counts.(p) + if now then 1 else -1

let set_interval_statuses t ~interval ~good =
  check_interval t interval;
  if Bitset.length good <> n_paths t then
    invalid_arg "Observations.set_interval_statuses: wrong capacity";
  for p = 0 to n_paths t - 1 do
    let now = Bitset.get good p in
    if Bitset.get t.path_good.(p) interval <> now then
      change t ~interval p now
  done

let flip_interval_statuses t ~interval ~changed =
  check_interval t interval;
  if Bitset.length changed <> n_paths t then
    invalid_arg "Observations.flip_interval_statuses: wrong capacity";
  Bitset.iter
    (fun p ->
      change t ~interval p (not (Bitset.get t.path_good.(p) interval)))
    changed

let good_count t ~path =
  check_path t path;
  t.counts.(path)

(* The rows' conjunction, formed and counted one word at a time on the
   rows' own words: their tails are clear, so every bit counted is an
   interval, and a word stops being ANDed once it is zero. *)
let all_good_count t paths =
  let n = Array.length paths in
  for i = 0 to n - 1 do
    check_path t paths.(i)
  done;
  match n with
  | 0 -> t.t_intervals
  | 1 -> t.counts.(paths.(0))
  | _ ->
      let total = ref 0 in
      for w = 0 to Array.length (Bitset.words t.path_good.(0)) - 1 do
        let acc = ref (Bitset.words t.path_good.(paths.(0))).(w) in
        let i = ref 1 in
        while !acc <> 0 && !i < n do
          acc := !acc land (Bitset.words t.path_good.(paths.(!i))).(w);
          incr i
        done;
        total := !total + Bitset.popcount !acc
      done;
      !total

let smoothed_log_probs t counts =
  let b = Array.create_float (Array.length counts) in
  for i = 0 to Array.length counts - 1 do
    let count = counts.(i) in
    if count < 0 || count > t.t_intervals then
      invalid_arg "Observations.smoothed_log_probs: count out of range";
    b.(i) <- t.log_prob.(count)
  done;
  b

let log_all_good_prob t paths = t.log_prob.(all_good_count t paths)

let good_frac t ~path =
  check_path t path;
  float_of_int t.counts.(path) /. float_of_int t.t_intervals

let always_good t ~path =
  check_path t path;
  t.counts.(path) = t.t_intervals

let good_paths_at t ~interval =
  check_interval t interval;
  let b = Bitset.create (n_paths t) in
  Array.iteri
    (fun p row -> if Bitset.get row interval then Bitset.set b p)
    t.path_good;
  b

let congested_paths_at t ~interval =
  let good = good_paths_at t ~interval in
  let b = Bitset.create (n_paths t) in
  Bitset.set_all b;
  Bitset.diff_into ~into:b good;
  b

let resample t rng =
  let draw =
    Array.init t.t_intervals (fun _ -> Tomo_util.Rng.int rng t.t_intervals)
  in
  let path_good =
    Array.map
      (fun row ->
        let fresh = Bitset.create t.t_intervals in
        Array.iteri
          (fun dst src -> if Bitset.get row src then Bitset.set fresh dst)
          draw;
        fresh)
      t.path_good
  in
  make ~t_intervals:t.t_intervals ~path_good
