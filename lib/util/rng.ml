type t = { state : Random.State.t; seed : int }

let create seed = { state = Random.State.make [| seed; 0x746f6d6f |]; seed }

(* The splitmix64 finalizer: a full-avalanche 64-bit mix, so every bit
   of the input affects every bit of the output.  Hashtbl.hash (the
   previous implementation) truncates to ~30 bits and collides across
   thousands of parallel task labels; two colliding children would share
   an entire random stream. *)
let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* FNV-1a over the label bytes: cheap, order-sensitive, no truncation. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let split t ~label =
  let z = splitmix64 (Int64.add (Int64.of_int t.seed) 0x9e3779b97f4a7c15L) in
  let mixed = splitmix64 (Int64.logxor z (fnv1a64 label)) in
  create (Int64.to_int mixed land max_int)

(* Integer-keyed split for hot loops that derive one child per index
   (e.g. one stream per simulated interval): same construction as
   [split] but the key is mixed directly, skipping the string render and
   FNV pass.  Distinct from every [split ~label] stream because the key
   goes through an extra odd-constant multiply before the final mix. *)
let split_int t key =
  let z = splitmix64 (Int64.add (Int64.of_int t.seed) 0x9e3779b97f4a7c15L) in
  let k = splitmix64 (Int64.mul (Int64.of_int key) 0xff51afd7ed558ccdL) in
  let mixed = splitmix64 (Int64.logxor z k) in
  create (Int64.to_int mixed land max_int)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  Random.State.int t.state bound

let float t bound = Random.State.float t.state bound

let uniform t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform: hi < lo";
  lo +. Random.State.float t.state (hi -. lo)

let bool t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else Random.State.float t.state 1.0 < p


let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t.state (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(Random.State.int t.state (Array.length a))

let sample t a k =
  let n = Array.length a in
  if k < 0 || k > n then invalid_arg "Rng.sample: bad sample size";
  let idx = Array.init n (fun i -> i) in
  (* Partial Fisher-Yates: only the first [k] positions need settling. *)
  for i = 0 to k - 1 do
    let j = i + Random.State.int t.state (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.init k (fun i -> a.(idx.(i)))

let pick_weighted t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: weights sum to zero";
  let x = Random.State.float t.state total in
  let rec go i acc =
    if i = Array.length weights - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0
