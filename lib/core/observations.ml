module Bitset = Tomo_util.Bitset

type t = {
  t_intervals : int;
  path_good : Bitset.t array;
  counts : int array;  (* per path: number of good intervals *)
  log_prob : float array;
      (* count -> its smoothed log-frequency: the T + 1 values a
         right-hand side can take, so building one takes no [log] *)
  scratch : Bitset.t option Atomic.t;
      (* leased by all_good_count; a concurrent holder makes the next
         caller allocate a private one instead of blocking *)
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
    scratch = Atomic.make (Some (Bitset.create t_intervals));
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

(* Run [f] on a scratch bit set of arbitrary prior content (callers
   overwrite it wholesale before reading).  The cached one is leased with
   a single atomic exchange; if another domain holds it we fall back to a
   fresh allocation, so concurrent readers stay correct. *)
let with_scratch t f =
  match Atomic.exchange t.scratch None with
  | Some b ->
      let r = f b in
      Atomic.set t.scratch (Some b);
      r
  | None -> f (Bitset.create t.t_intervals)

let all_good_count t paths =
  match Array.length paths with
  | 0 -> t.t_intervals
  | 1 ->
      check_path t paths.(0);
      t.counts.(paths.(0))
  | _ ->
      check_path t paths.(0);
      with_scratch t (fun acc ->
          (* One word-level blit seeds the intersection — no clear pass,
             no bit-at-a-time copy. *)
          Bitset.copy_into ~into:acc t.path_good.(paths.(0));
          Array.iter
            (fun p ->
              check_path t p;
              Bitset.inter_into ~into:acc t.path_good.(p))
            paths;
          Bitset.count acc)

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
