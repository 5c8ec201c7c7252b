module Bitset = Tomo_util.Bitset

type t = {
  model : Model.t;
  effective : Bitset.t;
  words : int;
  eff_start : int array;
  eff_links : int array;
  link_pos : int array;
  pos_word : int array;
  pos_bit : int array;
  path_start : int array;
  pair_set : int array;
  pair_slot : int array;
  pair_mask : int array;
  set_start : int array;
  set_path : int array;
  set_mask : int array;
  sig_start : int array;
  sigs : int array;
  rep : int array;
}

(* Each word holds [Sys.int_size] links, the sign bit included. *)
let word_links = Sys.int_size

(* The word helpers test the first word before looping over the rest:
   it is the only one on every generated topology. *)
let rec subset_from a ia b ib w j =
  j >= w
  || Array.unsafe_get a (ia + j) land lnot (Array.unsafe_get b (ib + j)) = 0
     && subset_from a ia b ib w (j + 1)

let subset a ia b ib w =
  a.(ia) land lnot b.(ib) = 0 && (w = 1 || subset_from a ia b ib w 1)

let rec equal_from a ia b ib w j =
  j >= w
  || Array.unsafe_get a (ia + j) = Array.unsafe_get b (ib + j)
     && equal_from a ia b ib w (j + 1)

let equal a ia b ib w = a.(ia) = b.(ib) && (w = 1 || equal_from a ia b ib w 1)

let popcount a i w =
  let n = ref 0 in
  for j = i to i + w - 1 do
    n := !n + Bitset.popcount a.(j)
  done;
  !n

(* Word by word from the first, as signed ints: at one word, the
   order of [compare] on the masks. *)
let rec compare_masks a ia b ib w j =
  if j >= w then 0
  else
    let c = Int.compare a.(ia + j) b.(ib + j) in
    if c <> 0 then c else compare_masks a ia b ib w (j + 1)

let same_pairs t p q =
  let a = t.path_start.(p) and b = t.path_start.(q) in
  let len = t.path_start.(p + 1) - a in
  len = t.path_start.(q + 1) - b
  &&
  let rec go k =
    k >= len
    || t.pair_slot.(a + k) = t.pair_slot.(b + k)
       && t.pair_mask.(a + k) = t.pair_mask.(b + k)
       && go (k + 1)
  in
  go 0

(* Paths with the same pairs, found through a chained hash table over
   flat arrays: [head] per bucket and [next] per path link the classes'
   first members.  A pair's slot names its set and word. *)
let classes t =
  let n_paths = t.model.Model.n_paths in
  let rep = Array.init n_paths Fun.id in
  let size = ref 16 in
  while !size < n_paths do
    size := 2 * !size
  done;
  let head = Array.make !size (-1) and next = Array.make n_paths (-1) in
  for p = 0 to n_paths - 1 do
    let a = t.path_start.(p) and b = t.path_start.(p + 1) in
    if b > a then begin
      let h = ref (b - a) in
      for k = a to b - 1 do
        h := (((!h * 31) + t.pair_slot.(k)) * 31) + t.pair_mask.(k)
      done;
      let bucket = (!h lxor (!h lsr 32)) land (!size - 1) in
      let q = ref head.(bucket) in
      while !q >= 0 && not (same_pairs t p !q) do
        q := next.(!q)
      done;
      if !q >= 0 then rep.(p) <- !q
      else begin
        next.(p) <- head.(bucket);
        head.(bucket) <- p
      end
    end
  done;
  rep

let build model ~effective =
  let n_links = model.Model.n_links and n_paths = model.Model.n_paths in
  if Bitset.length effective <> n_links then
    invalid_arg "Signatures.build: effective set of the wrong capacity";
  let n_corr = Model.n_corr_sets model in
  let corr_of = model.Model.corr_of_link in
  (* Effective links per set, and each one's position in the set. *)
  let eff_start = Array.make (n_corr + 1) 0 in
  let eff_links = Array.make n_links 0 in
  let link_pos = Array.make n_links (-1) in
  let n_eff = ref 0 and widest = ref 0 in
  for c = 0 to n_corr - 1 do
    let first = !n_eff in
    Array.iter
      (fun e ->
        if Bitset.unsafe_get effective e then begin
          eff_links.(!n_eff) <- e;
          link_pos.(e) <- !n_eff - first;
          incr n_eff
        end)
      model.Model.corr_sets.(c);
    widest := max !widest (!n_eff - first);
    eff_start.(c + 1) <- !n_eff
  done;
  let words = max 1 ((!widest + word_links - 1) / word_links) in
  let pos_word = Array.init (words * word_links) (fun i -> i / word_links) in
  let pos_bit =
    Array.init (words * word_links) (fun i -> 1 lsl (i mod word_links))
  in
  (* Per set, how many paths run its effective links: the length of its
     path list. *)
  let set_start = Array.make (n_corr + 1) 0 in
  let touched = Bitset.create n_paths in
  for c = 0 to n_corr - 1 do
    let lo = eff_start.(c) and hi = eff_start.(c + 1) in
    let n =
      if hi = lo then 0
      else begin
        Bitset.clear_all touched;
        for i = lo to hi - 1 do
          Bitset.union_into ~into:touched
            model.Model.link_paths.(eff_links.(i))
        done;
        Bitset.count touched
      end
    in
    set_start.(c + 1) <- set_start.(c) + n
  done;
  let n_entries = set_start.(n_corr) in
  (* Per path, its signature on each set it runs, gathered word by word
     into [acc] at the set's slots; then its pairs, and per set its
     paths in ascending order with their masks.  A path has at most
     [words] pairs per set, so [n_entries * words] bounds the pairs. *)
  let cap = n_entries * words in
  let pair_set = Array.make cap 0 and pair_mask = Array.make cap 0 in
  let pair_slot = if words = 1 then pair_set else Array.make cap 0 in
  let path_start = Array.make (n_paths + 1) 0 in
  let acc = Array.make (n_corr * words) 0 in
  let seen = Array.make n_corr false and order = Array.make n_corr 0 in
  let n_order = ref 0 in
  let visit e =
    let i = Array.unsafe_get link_pos e in
    if i >= 0 then begin
      let c = Array.unsafe_get corr_of e in
      if not (Array.unsafe_get seen c) then begin
        seen.(c) <- true;
        order.(!n_order) <- c;
        incr n_order
      end;
      let s = (c * words) + pos_word.(i) in
      acc.(s) <- acc.(s) lor pos_bit.(i)
    end
  in
  let set_path = Array.make n_entries 0 and set_mask = Array.make cap 0 in
  let fill = Array.sub set_start 0 n_corr in
  let k_pairs = ref 0 in
  for p = 0 to n_paths - 1 do
    n_order := 0;
    Bitset.iter visit model.Model.path_links.(p);
    for g = 0 to !n_order - 1 do
      let c = order.(g) in
      seen.(c) <- false;
      let entry = fill.(c) in
      fill.(c) <- entry + 1;
      set_path.(entry) <- p;
      for j = 0 to words - 1 do
        let s = (c * words) + j in
        let m = acc.(s) in
        if m <> 0 then begin
          set_mask.((entry * words) + j) <- m;
          pair_set.(!k_pairs) <- c;
          pair_slot.(!k_pairs) <- s;
          pair_mask.(!k_pairs) <- m;
          incr k_pairs;
          acc.(s) <- 0
        end
      done
    done;
    path_start.(p + 1) <- !k_pairs
  done;
  (* Per set, its distinct signatures, ascending: each path's mask is
     inserted into the set's sorted run unless already there. *)
  let sig_start = Array.make (n_corr + 1) 0 in
  let sigs = Array.make cap 0 in
  let n_sigs = ref 0 in
  for c = 0 to n_corr - 1 do
    let lo = !n_sigs in
    for i = set_start.(c) to set_start.(c + 1) - 1 do
      let m = i * words in
      (* The first signature in [lo, n_sigs) that is >= the mask. *)
      let l = ref lo and h = ref !n_sigs in
      while !l < !h do
        let mid = (!l + !h) lsr 1 in
        let s0 = sigs.(mid * words) and m0 = set_mask.(m) in
        if
          s0 < m0
          || s0 = m0 && words > 1
             && compare_masks sigs (mid * words) set_mask m words 1 < 0
        then l := mid + 1
        else h := mid
      done;
      if !l = !n_sigs || not (equal sigs (!l * words) set_mask m words) then begin
        Array.blit sigs (!l * words) sigs
          ((!l + 1) * words)
          ((!n_sigs - !l) * words);
        Array.blit set_mask m sigs (!l * words) words;
        incr n_sigs
      end
    done;
    sig_start.(c + 1) <- !n_sigs
  done;
  let t =
    {
      model;
      effective;
      words;
      eff_start;
      eff_links;
      link_pos;
      pos_word;
      pos_bit;
      path_start;
      pair_set;
      pair_slot;
      pair_mask;
      set_start;
      set_path;
      set_mask;
      sig_start;
      sigs;
      rep = [||];
    }
  in
  { t with rep = classes t }

let n_effective t c = t.eff_start.(c + 1) - t.eff_start.(c)

let effective_links t c =
  Array.sub t.eff_links t.eff_start.(c) (n_effective t c)

(* Words [j ..] of the mask at [i] of [e] are each the OR of word [j]
   of the signatures at [lo, hi) (step [w]) inside that mask. *)
let rec covers sigs lo hi w e i j =
  j >= w
  ||
  let e0 = e.(i) and cover = ref 0 and k = ref lo in
  while !k < hi do
    let s0 = Array.unsafe_get sigs !k in
    if s0 land lnot e0 = 0 && (w = 1 || subset_from sigs !k e i w 1) then
      cover := !cover lor Array.unsafe_get sigs (!k + j);
    k := !k + w
  done;
  !cover = e.(i + j) && covers sigs lo hi w e i (j + 1)

let inducible t ~corr e i =
  let w = t.words in
  covers t.sigs (t.sig_start.(corr) * w) (t.sig_start.(corr + 1) * w) w e i 0

let pool t ~corr e i =
  let w = t.words in
  let lo = t.set_start.(corr) and hi = t.set_start.(corr + 1) in
  let n = ref 0 in
  for k = lo to hi - 1 do
    if subset t.set_mask (k * w) e i w then incr n
  done;
  let out = Array.make !n 0 in
  let j = ref 0 in
  for k = lo to hi - 1 do
    if subset t.set_mask (k * w) e i w then begin
      out.(!j) <- t.set_path.(k);
      incr j
    end
  done;
  out
