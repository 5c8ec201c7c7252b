type t = { len : int; words : int array }

let bits_per_word = Sys.int_size
let word_bits = bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative capacity";
  { len; words = Array.make ((len + bits_per_word - 1) / bits_per_word) 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let assign t i b = if b then set t i else clear t i

let get t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(* Unchecked variants for inner loops whose indices are validated once
   outside the loop (the netsim transpose sets one bit per set path per
   interval; the bounds are pinned by construction). *)
let unsafe_set t i =
  let w = i / bits_per_word and b = i mod bits_per_word in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl b))

let unsafe_get t i =
  let w = i / bits_per_word and b = i mod bits_per_word in
  Array.unsafe_get t.words w land (1 lsl b) <> 0

(* Bits beyond [len] in the last word must stay zero so that [count],
   [equal] and friends can work word-wise. [mask_tail] re-establishes that
   invariant after whole-word operations such as [set_all]. *)
let mask_tail t =
  let r = t.len mod bits_per_word in
  if r <> 0 && Array.length t.words > 0 then begin
    let last = Array.length t.words - 1 in
    t.words.(last) <- t.words.(last) land ((1 lsl r) - 1)
  end

(* Testing hook: true iff the tail invariant holds.  Every exported
   operation must preserve it; the word-level ops rely on both operands
   satisfying it (e.g. [union_into] never revives a tail bit because
   neither side has one set). *)
let invariant t =
  let r = t.len mod bits_per_word in
  r = 0
  || Array.length t.words = 0
  || t.words.(Array.length t.words - 1) land lnot ((1 lsl r) - 1) = 0

let set_all t =
  Array.fill t.words 0 (Array.length t.words) (-1);
  mask_tail t

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0
let copy t = { len = t.len; words = Array.copy t.words }

(* SWAR popcount over the two 32-bit halves of a word: ~a dozen
   straight-line integer ops, against up to [bits_per_word] iterations of
   the classic clear-lowest-bit loop on dense words (interval-status rows
   are mostly ones under low congestion). *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* OCaml ints are 63-bit, so the multiply does not truncate at 32 bits
     the way the classic C idiom assumes — mask the byte-sum out
     explicitly or the carried high bytes leak into the count. *)
  (x * 0x01010101) lsr 24 land 0xFF

let popcount x =
  popcount32 (x land 0xFFFFFFFF) + popcount32 ((x lsr 32) land 0x7FFFFFFF)

let count t =
  let acc = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    acc := !acc + popcount (Array.unsafe_get t.words i)
  done;
  !acc

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* The word predicates below are loops over a local index rather than a
   local recursive function, which would capture both sets in a closure
   allocated on every call. *)
let equal a b =
  a.len = b.len
  && Array.length a.words = Array.length b.words
  &&
  let i = ref 0 and n = Array.length a.words in
  while !i < n && Array.unsafe_get a.words !i = Array.unsafe_get b.words !i do
    incr i
  done;
  !i = n

let check_same a b =
  if a.len <> b.len then invalid_arg "Bitset: capacity mismatch"

let copy_into ~into src =
  check_same into src;
  Array.blit src.words 0 into.words 0 (Array.length src.words)

let inter_into ~into src =
  check_same into src;
  for i = 0 to Array.length into.words - 1 do
    Array.unsafe_set into.words i
      (Array.unsafe_get into.words i land Array.unsafe_get src.words i)
  done

let union_into ~into src =
  check_same into src;
  for i = 0 to Array.length into.words - 1 do
    Array.unsafe_set into.words i
      (Array.unsafe_get into.words i lor Array.unsafe_get src.words i)
  done

let diff_into ~into src =
  check_same into src;
  for i = 0 to Array.length into.words - 1 do
    Array.unsafe_set into.words i
      (Array.unsafe_get into.words i land lnot (Array.unsafe_get src.words i))
  done

let xor_into ~into src =
  check_same into src;
  for i = 0 to Array.length into.words - 1 do
    Array.unsafe_set into.words i
      (Array.unsafe_get into.words i lxor Array.unsafe_get src.words i)
  done

let inter a b =
  let r = copy a in
  inter_into ~into:r b;
  r

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~into:r b;
  r

let count_inter a b =
  check_same a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc :=
      !acc
      + popcount (Array.unsafe_get a.words i land Array.unsafe_get b.words i)
  done;
  !acc

let disjoint a b =
  check_same a b;
  let i = ref 0 and n = Array.length a.words in
  while
    !i < n && Array.unsafe_get a.words !i land Array.unsafe_get b.words !i = 0
  do
    incr i
  done;
  !i = n

let subset a b =
  check_same a b;
  let i = ref 0 and n = Array.length a.words in
  while
    !i < n
    && Array.unsafe_get a.words !i land lnot (Array.unsafe_get b.words !i) = 0
  do
    incr i
  done;
  !i = n

let words t = t.words

(* Two passes over the index sets: the first counts each set's runs of
   indices that share a word, the second fills them. *)
let occupied_words ~len sets =
  let m = Array.length sets in
  let ptr = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    let idx = sets.(i) and last = ref (-1) in
    ptr.(i + 1) <- ptr.(i);
    for k = 0 to Array.length idx - 1 do
      let j = idx.(k) in
      if j < 0 || j >= len then
        invalid_arg "Bitset.occupied_words: index out of range";
      let w = j / bits_per_word in
      if w <> !last then begin
        ptr.(i + 1) <- ptr.(i + 1) + 1;
        last := w
      end
    done
  done;
  let word = Array.make ptr.(m) 0 and bits = Array.make ptr.(m) 0 in
  for i = 0 to m - 1 do
    let idx = sets.(i) and q = ref (ptr.(i) - 1) in
    for k = 0 to Array.length idx - 1 do
      let j = idx.(k) in
      let w = j / bits_per_word in
      if !q < ptr.(i) || word.(!q) <> w then begin
        incr q;
        word.(!q) <- w
      end;
      bits.(!q) <- bits.(!q) lor (1 lsl (j mod bits_per_word))
    done
  done;
  (ptr, word, bits)

(* Word-level iterators: the raw packed words, for hot loops (the netsim
   transpose, bulk statistics) that want one visit per word rather than
   one per bit.  The tail word of a partial last block carries the
   invariant above — its bits past [length] are zero. *)
let iter_words f t =
  for w = 0 to Array.length t.words - 1 do
    f w (Array.unsafe_get t.words w)
  done

let fold_words f init t =
  let acc = ref init in
  for w = 0 to Array.length t.words - 1 do
    acc := f !acc w (Array.unsafe_get t.words w)
  done;
  !acc

(* Per set bit: isolate the lowest one ([x land (-x)]) and recover its
   index as popcount(bit − 1) — all-ones below a power of two.  Cost is
   proportional to the number of set bits, not the capacity. *)
let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let x = ref (Array.unsafe_get words w) in
    if !x <> 0 then begin
      let base = w * bits_per_word in
      while !x <> 0 do
        let b = !x land - !x in
        f (base + popcount (b - 1));
        x := !x lxor b
      done
    end
  done

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold (fun acc i -> i :: acc) [] t)

let of_list n l =
  let t = create n in
  List.iter (set t) l;
  t

let to_string t =
  let b = Bytes.make ((t.len + 7) / 8) '\000' in
  iter
    (fun i ->
      Bytes.set_uint8 b (i lsr 3)
        (Bytes.get_uint8 b (i lsr 3) lor (1 lsl (i land 7))))
    t;
  Bytes.unsafe_to_string b

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (to_list t)
