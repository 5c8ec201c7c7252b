module Bitset = Tomo_util.Bitset

type t = {
  model : Model.t;
  effective : Bitset.t;
  fits : bool;
  eff_start : int array;
  eff_links : int array;
  link_pos : int array;
  path_start : int array;
  pair_set : int array;
  pair_mask : int array;
  set_start : int array;
  set_path : int array;
  set_mask : int array;
  sig_start : int array;
  sigs : int array;
  rep : int array;
}

(* A set fits when each of its effective links gets its own bit of a
   native int, the sign bit included. *)
let word_links = Sys.int_size

let same_pairs t p q =
  let a = t.path_start.(p) and b = t.path_start.(q) in
  let len = t.path_start.(p + 1) - a in
  len = t.path_start.(q + 1) - b
  &&
  let rec go k =
    k >= len
    || t.pair_set.(a + k) = t.pair_set.(b + k)
       && t.pair_mask.(a + k) = t.pair_mask.(b + k)
       && go (k + 1)
  in
  go 0

(* Paths with the same pairs, found through a chained hash table over
   flat arrays: [head] per bucket and [next] per path link the classes'
   first members. *)
let classes t =
  let n_paths = t.model.Model.n_paths in
  let rep = Array.init n_paths Fun.id in
  if t.fits then begin
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
          h := (((!h * 31) + t.pair_set.(k)) * 31) + t.pair_mask.(k)
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
    done
  end;
  rep

let build model ~effective =
  let n_links = model.Model.n_links and n_paths = model.Model.n_paths in
  if Bitset.length effective <> n_links then
    invalid_arg "Signatures.build: effective set of the wrong capacity";
  let n_corr = Model.n_corr_sets model in
  let corr_of = model.Model.corr_of_link in
  (* Effective links per set, and each one's bit in the set's masks. *)
  let eff_start = Array.make (n_corr + 1) 0 in
  let eff_links = Array.make n_links 0 in
  let link_pos = Array.make n_links (-1) in
  let fits = ref true and n_eff = ref 0 in
  for c = 0 to n_corr - 1 do
    let first = !n_eff in
    Array.iter
      (fun e ->
        if Bitset.unsafe_get effective e then begin
          eff_links.(!n_eff) <- e;
          incr n_eff
        end)
      model.Model.corr_sets.(c);
    if !n_eff - first > word_links then fits := false
    else
      for i = first to !n_eff - 1 do
        link_pos.(eff_links.(i)) <- i - first
      done;
    eff_start.(c + 1) <- !n_eff
  done;
  (* Per fitting set, how many paths run its effective links: the
     length of its path list, and in total the number of pairs. *)
  let set_start = Array.make (n_corr + 1) 0 in
  let touched = Bitset.create n_paths in
  for c = 0 to n_corr - 1 do
    let lo = eff_start.(c) and hi = eff_start.(c + 1) in
    let n =
      if hi = lo || link_pos.(eff_links.(lo)) < 0 then 0
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
  let n_pairs = set_start.(n_corr) in
  (* Per path, its (set, mask) pairs, and per set its paths in ascending
     order with their masks. *)
  let pair_set = Array.make n_pairs 0 and pair_mask = Array.make n_pairs 0 in
  let path_start = Array.make (n_paths + 1) 0 in
  let slot = Array.make n_corr (-1) in
  let k_pairs = ref 0 in
  let visit e =
    let i = Array.unsafe_get link_pos e in
    if i >= 0 then begin
      let c = Array.unsafe_get corr_of e in
      let s = Array.unsafe_get slot c in
      if s < 0 then begin
        slot.(c) <- !k_pairs;
        pair_set.(!k_pairs) <- c;
        pair_mask.(!k_pairs) <- 1 lsl i;
        incr k_pairs
      end
      else pair_mask.(s) <- pair_mask.(s) lor (1 lsl i)
    end
  in
  let set_path = Array.make n_pairs 0 and set_mask = Array.make n_pairs 0 in
  let fill = Array.sub set_start 0 n_corr in
  for p = 0 to n_paths - 1 do
    let first = !k_pairs in
    Bitset.iter visit model.Model.path_links.(p);
    for k = first to !k_pairs - 1 do
      let c = pair_set.(k) in
      slot.(c) <- -1;
      set_path.(fill.(c)) <- p;
      set_mask.(fill.(c)) <- pair_mask.(k);
      fill.(c) <- fill.(c) + 1
    done;
    path_start.(p + 1) <- !k_pairs
  done;
  (* Per set, its distinct signatures, ascending: each path's mask is
     inserted into the set's sorted run unless already there. *)
  let sig_start = Array.make (n_corr + 1) 0 in
  let sigs = Array.make n_pairs 0 in
  let n_sigs = ref 0 in
  for c = 0 to n_corr - 1 do
    let lo = !n_sigs in
    for i = set_start.(c) to set_start.(c + 1) - 1 do
      let m = set_mask.(i) in
      (* The first position in [lo, n_sigs) whose signature is >= m. *)
      let l = ref lo and h = ref !n_sigs in
      while !l < !h do
        let mid = (!l + !h) lsr 1 in
        if sigs.(mid) < m then l := mid + 1 else h := mid
      done;
      if !l = !n_sigs || sigs.(!l) <> m then begin
        Array.blit sigs !l sigs (!l + 1) (!n_sigs - !l);
        sigs.(!l) <- m;
        incr n_sigs
      end
    done;
    sig_start.(c + 1) <- !n_sigs
  done;
  let t =
    {
      model;
      effective;
      fits = !fits;
      eff_start;
      eff_links;
      link_pos;
      path_start;
      pair_set;
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
let set_fits t c = n_effective t c <= word_links
let effective_links t c =
  Array.sub t.eff_links t.eff_start.(c) (n_effective t c)

let inducible t ~corr e =
  let cover = ref 0 in
  for i = t.sig_start.(corr) to t.sig_start.(corr + 1) - 1 do
    let s = Array.unsafe_get t.sigs i in
    if s land lnot e = 0 then cover := !cover lor s
  done;
  !cover = e

let pool t ~corr e =
  let lo = t.set_start.(corr) and hi = t.set_start.(corr + 1) in
  let n = ref 0 in
  for i = lo to hi - 1 do
    if t.set_mask.(i) land lnot e = 0 then incr n
  done;
  let out = Array.make !n 0 in
  let j = ref 0 in
  for i = lo to hi - 1 do
    if t.set_mask.(i) land lnot e = 0 then begin
      out.(!j) <- t.set_path.(i);
      incr j
    end
  done;
  out
