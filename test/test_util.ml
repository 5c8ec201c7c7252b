(* Tests for the utility substrate: bit sets, RNG, statistics and
   combinatorics. *)

module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Stats = Tomo_util.Stats
module Combin = Tomo_util.Combin

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 130 in
  check_int "empty count" 0 (Bitset.count b);
  check_bool "is_empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 129;
  check_int "count after sets" 4 (Bitset.count b);
  check_bool "get 63" true (Bitset.get b 63);
  check_bool "get 62" false (Bitset.get b 62);
  Bitset.clear b 63;
  check_bool "cleared" false (Bitset.get b 63);
  check_int "count after clear" 3 (Bitset.count b)

let test_bitset_set_all () =
  let b = Bitset.create 70 in
  Bitset.set_all b;
  check_int "all bits set" 70 (Bitset.count b);
  Bitset.clear_all b;
  check_int "all cleared" 0 (Bitset.count b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set b 10);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.get b (-1)))

let test_bitset_ops () =
  let a = Bitset.of_list 100 [ 1; 5; 64; 99 ] in
  let b = Bitset.of_list 100 [ 5; 64; 70 ] in
  check_int "inter" 2 (Bitset.count (Bitset.inter a b));
  check_int "union" 5 (Bitset.count (Bitset.union a b));
  check_int "diff" 2 (Bitset.count (Bitset.diff a b));
  check_int "count_inter" 2 (Bitset.count_inter a b);
  check_bool "not disjoint" false (Bitset.disjoint a b);
  check_bool "disjoint" true
    (Bitset.disjoint a (Bitset.of_list 100 [ 0; 2 ]));
  check_bool "subset yes" true
    (Bitset.subset (Bitset.of_list 100 [ 5; 64 ]) a);
  check_bool "subset no" false (Bitset.subset b a)

let test_bitset_iteration () =
  let a = Bitset.of_list 200 [ 3; 77; 150 ] in
  Alcotest.(check (list int)) "to_list" [ 3; 77; 150 ] (Bitset.to_list a);
  check_int "fold sum" 230 (Bitset.fold ( + ) 0 a)

(* ---- Flat-word battery ----

   The word-level kernels ([*_into], [copy_into], the word iterators and
   the packed [iter]/[count]) all rely on one storage invariant: bits
   past [len] in the last word stay zero.  Exercise every operation at
   the boundary lengths where the tail mask matters — 0, one bit, one
   word minus one, exactly one word, just past it, and a multi-word
   set. *)

let boundary_lengths = [ 0; 1; 62; 63; 64; 127; 128; 200 ]

let len_and_lists_gen =
  QCheck.Gen.(
    oneofl boundary_lengths >>= fun len ->
    let idx =
      if len = 0 then return []
      else list_size (int_bound 60) (int_bound (len - 1))
    in
    pair idx idx >>= fun (a, b) -> return (len, a, b))

let len_and_lists = QCheck.make len_and_lists_gen

let prop_bitset_word_ops_invariant =
  QCheck.Test.make
    ~name:"word-level ops preserve the tail invariant at boundary lengths"
    ~count:300 len_and_lists (fun (len, la, lb) ->
      let a = Bitset.of_list len la and b = Bitset.of_list len lb in
      let after op =
        let t = Bitset.copy a in
        op t;
        Bitset.invariant t
      in
      Bitset.invariant a
      && after (fun t -> Bitset.union_into ~into:t b)
      && after (fun t -> Bitset.inter_into ~into:t b)
      && after (fun t -> Bitset.diff_into ~into:t b)
      && after (fun t -> Bitset.xor_into ~into:t b)
      && after (fun t -> Bitset.copy_into ~into:t b)
      && after Bitset.set_all
      && after Bitset.clear_all
      &&
      let s = Bitset.copy a in
      Bitset.set_all s;
      Bitset.count s = len)

let prop_bitset_inplace_equals_fresh =
  QCheck.Test.make
    ~name:"in-place word ops agree with the allocating versions" ~count:300
    len_and_lists (fun (len, la, lb) ->
      let a = Bitset.of_list len la and b = Bitset.of_list len lb in
      let via op_into fresh =
        let t = Bitset.copy a in
        op_into t;
        Bitset.equal t fresh
      in
      via (fun t -> Bitset.union_into ~into:t b) (Bitset.union a b)
      && via (fun t -> Bitset.inter_into ~into:t b) (Bitset.inter a b)
      && via (fun t -> Bitset.diff_into ~into:t b) (Bitset.diff a b)
      && via
           (fun t -> Bitset.xor_into ~into:t b)
           (Bitset.union (Bitset.diff a b) (Bitset.diff b a))
      && via (fun t -> Bitset.copy_into ~into:t b) b
      && Bitset.count_inter a b = Bitset.count (Bitset.inter a b))

(* Reconstruct the membership list straight from the packed words: the
   iterators hand over (word index, word) pairs, so any stray tail bit
   or mis-based word index shows up as a list mismatch. *)
let bits_of_words t =
  let acc = ref [] in
  Bitset.iter_words
    (fun wi w ->
      for b = Bitset.word_bits - 1 downto 0 do
        if (w lsr b) land 1 = 1 then
          acc := ((wi * Bitset.word_bits) + b) :: !acc
      done)
    t;
  List.sort compare !acc

(* Naive one-bit-at-a-time popcount — the oracle for the SWAR count. *)
let slow_popcount w =
  let n = ref 0 in
  for b = 0 to Sys.int_size - 1 do
    n := !n + ((w lsr b) land 1)
  done;
  !n

let prop_bitset_word_iterators =
  QCheck.Test.make ~name:"word iterators expose exactly the stored bits"
    ~count:300 len_and_lists (fun (len, la, _) ->
      let a = Bitset.of_list len la in
      bits_of_words a = Bitset.to_list a
      && Bitset.fold_words (fun acc _ w -> acc + slow_popcount w) 0 a
         = Bitset.count a)

let prop_bitset_iter_matches_to_list =
  QCheck.Test.make
    ~name:"packed iter visits set bits in ascending order" ~count:300
    len_and_lists (fun (len, la, _) ->
      let a = Bitset.of_list len la in
      let acc = ref [] in
      Bitset.iter (fun i -> acc := i :: !acc) a;
      List.rev !acc = Bitset.to_list a)

let prop_bitset_unsafe_agrees =
  QCheck.Test.make ~name:"unsafe_set/unsafe_get agree with checked access"
    ~count:200 len_and_lists (fun (len, la, _) ->
      let a = Bitset.of_list len la in
      let b = Bitset.create len in
      List.iter (Bitset.unsafe_set b) (List.sort_uniq compare la);
      Bitset.equal a b
      && List.for_all
           (fun i -> Bitset.unsafe_get a i = Bitset.get a i)
           (List.init len (fun i -> i)))

(* ---- Word predicates ----

   [subset], [equal] and [disjoint] against a bit-by-bit reading, at
   every length from 0 to 200, so that the tail word is covered at every
   fill.  [b] is drawn unrelated to [a], as a superset of it, or as a
   copy of it, so that each predicate answers both ways. *)

let predicate_case =
  QCheck.make
    ~print:QCheck.Print.(quad int (list int) (list int) int)
    QCheck.Gen.(
      int_range 0 200 >>= fun len ->
      let idx =
        if len = 0 then return []
        else list_size (int_bound 40) (int_bound (len - 1))
      in
      quad (return len) idx idx (int_bound 2))

let prop_bitset_predicates =
  QCheck.Test.make ~name:"subset, equal, disjoint ≡ bit-by-bit reading"
    ~count:1000 predicate_case (fun (len, la, lb, relation) ->
      let a = Bitset.of_list len la in
      let b =
        match relation with
        | 0 -> Bitset.of_list len lb
        | 1 -> Bitset.union a (Bitset.of_list len lb)
        | _ -> Bitset.copy a
      in
      let pairs = List.init len (fun i -> (Bitset.get a i, Bitset.get b i)) in
      let all f = List.for_all (fun (x, y) -> f x y) pairs in
      Bitset.subset a b = all (fun x y -> (not x) || y)
      && Bitset.subset b a = all (fun x y -> (not y) || x)
      && Bitset.equal a b = all ( = )
      && Bitset.disjoint a b = all (fun x y -> not (x && y))
      && (not (Bitset.equal a (Bitset.of_list (len + 1) la)))
      && Bitset.fold_words (fun ok w x -> ok && (Bitset.words a).(w) = x) true
           a)

(* [occupied_words] against the words each set has as a bit set: every
   entry nonzero, a set's entries OR-ed together are its words, an
   ascending set lists each word once in ascending order, and an index
   outside the capacity is refused. *)
let occupied_case =
  QCheck.make
    ~print:QCheck.Print.(pair int (list (pair bool (list int))))
    QCheck.Gen.(
      int_range 0 200 >>= fun len ->
      let idx =
        if len = 0 then return []
        else list_size (int_bound 30) (int_bound (len - 1))
      in
      pair (return len) (list_size (int_bound 8) (pair bool idx)))

let prop_bitset_occupied_words =
  QCheck.Test.make ~name:"occupied words ≡ each set's nonzero words"
    ~count:500 occupied_case (fun (len, cases) ->
      let sets =
        Array.of_list
          (List.map
             (fun (sorted, l) ->
               Array.of_list (if sorted then List.sort compare l else l))
             cases)
      in
      let ptr, word, bits = Bitset.occupied_words ~len sets in
      let n_words = Array.length (Bitset.words (Bitset.create len)) in
      let set_ok i idx =
        let acc = Array.make n_words 0 in
        for p = ptr.(i) to ptr.(i + 1) - 1 do
          acc.(word.(p)) <- acc.(word.(p)) lor bits.(p)
        done;
        let ascending = ref true in
        for p = ptr.(i) + 1 to ptr.(i + 1) - 1 do
          if word.(p) <= word.(p - 1) then ascending := false
        done;
        let sorted = List.sort compare (Array.to_list idx) = Array.to_list idx in
        acc = Bitset.words (Bitset.of_list len (Array.to_list idx))
        && ((not sorted) || !ascending)
      in
      let refused j =
        match Bitset.occupied_words ~len [| [| j |] |] with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Array.length ptr = Array.length sets + 1
      && ptr.(0) = 0
      && ptr.(Array.length sets) = Array.length word
      && Array.length bits = Array.length word
      && Array.for_all (fun x -> x <> 0) bits
      && List.for_all Fun.id (List.mapi set_ok (Array.to_list sets))
      && refused len && refused (-1))

let bitset_list_gen =
  QCheck.Gen.(list_size (int_bound 40) (int_bound 199))

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/to_list roundtrip" ~count:200
    (QCheck.make bitset_list_gen) (fun l ->
      let dedup = List.sort_uniq compare l in
      Bitset.to_list (Bitset.of_list 200 l) = dedup)

(* [to_string]: bit [i] is bit [i mod 8] of byte [i / 8], at capacities
   that end inside a byte and on a word boundary, and two sets' strings
   are equal exactly when the sets are. *)
let prop_bitset_to_string =
  QCheck.Test.make ~name:"bitset to_string: a bit a path, equal iff equal"
    ~count:200
    QCheck.(triple (make bitset_list_gen) (make bitset_list_gen) (int_range 0 3))
    (fun (la, lb, c) ->
      let len = List.nth [ 200; 126; 127; 193 ] c in
      let keep = List.filter (fun i -> i < len) in
      let a = Bitset.of_list len (keep la) and b = Bitset.of_list len (keep lb) in
      let sa = Bitset.to_string a in
      String.length sa = (len + 7) / 8
      && List.for_all
           (fun i ->
             Bitset.get a i
             = (Char.code sa.[i / 8] land (1 lsl (i mod 8)) <> 0))
           (List.init len Fun.id)
      && Bool.equal (String.equal sa (Bitset.to_string b)) (Bitset.equal a b))

let prop_bitset_demorgan =
  QCheck.Test.make ~name:"bitset |a∪b| = |a|+|b|-|a∩b|" ~count:200
    QCheck.(pair (make bitset_list_gen) (make bitset_list_gen))
    (fun (la, lb) ->
      let a = Bitset.of_list 200 la and b = Bitset.of_list 200 lb in
      Bitset.count (Bitset.union a b)
      = Bitset.count a + Bitset.count b - Bitset.count_inter a b)

let prop_bitset_diff_disjoint =
  QCheck.Test.make ~name:"bitset diff is disjoint from subtrahend"
    ~count:200
    QCheck.(pair (make bitset_list_gen) (make bitset_list_gen))
    (fun (la, lb) ->
      let a = Bitset.of_list 200 la and b = Bitset.of_list 200 lb in
      Bitset.disjoint (Bitset.diff a b) b)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_reproducible () =
  let draw seed =
    let r = Rng.create seed in
    Array.init 10 (fun _ -> Rng.int r 1000)
  in
  Alcotest.(check (array int)) "same seed same stream" (draw 42) (draw 42);
  check_bool "different seeds differ" true (draw 42 <> draw 43)

let test_rng_split_independent () =
  let r = Rng.create 7 in
  let a = Rng.split r ~label:"a" and b = Rng.split r ~label:"b" in
  let da = Array.init 8 (fun _ -> Rng.int a 1_000_000) in
  let db = Array.init 8 (fun _ -> Rng.int b 1_000_000) in
  check_bool "labels give distinct streams" true (da <> db);
  let a' = Rng.split (Rng.create 7) ~label:"a" in
  let da' = Array.init 8 (fun _ -> Rng.int a' 1_000_000) in
  Alcotest.(check (array int)) "split is deterministic" da da'

let test_rng_split_int () =
  let r = Rng.create 7 in
  let stream g = Array.init 8 (fun _ -> Rng.int g 1_000_000) in
  let a = stream (Rng.split_int r 0) and b = stream (Rng.split_int r 1) in
  check_bool "keys give distinct streams" true (a <> b);
  Alcotest.(check (array int))
    "split_int is deterministic" a
    (stream (Rng.split_int (Rng.create 7) 0));
  (* derivation depends on the seed only, never the draw position — the
     property the per-interval simulator fan-out relies on *)
  let r' = Rng.create 7 in
  ignore (Rng.int r' 100);
  ignore (Rng.float r' 1.0);
  Alcotest.(check (array int))
    "split_int ignores consumed draws" a
    (stream (Rng.split_int r' 0));
  (* and it must not collide with the string-labelled splits *)
  check_bool "distinct from split ~label" true
    (a <> stream (Rng.split r ~label:"0"))

let test_rng_bool_bias () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  check_bool "p=0.3 within 3 sigma" true (abs_float (f -. 0.3) < 0.012)

let test_rng_bool_extremes () =
  let r = Rng.create 1 in
  check_bool "p=0 never" false (Rng.bool r ~p:0.0);
  check_bool "p=1 always" true (Rng.bool r ~p:1.0)

let test_rng_sample () =
  let r = Rng.create 3 in
  let a = Array.init 20 (fun i -> i) in
  let s = Rng.sample r a 8 in
  check_int "sample size" 8 (Array.length s);
  let sorted = Array.to_list s |> List.sort_uniq compare in
  check_int "sample distinct" 8 (List.length sorted);
  Alcotest.check_raises "oversample rejected"
    (Invalid_argument "Rng.sample: bad sample size") (fun () ->
      ignore (Rng.sample r a 21))

let test_rng_pick_weighted () =
  let r = Rng.create 5 in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Rng.pick_weighted r [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "zero weight never chosen" 0 counts.(1);
  check_bool "weights respected" true
    (float_of_int counts.(2) /. float_of_int counts.(0) > 2.0)

let test_rng_uniform_range () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.uniform r ~lo:0.01 ~hi:1.0 in
    if x < 0.01 || x >= 1.0 then Alcotest.fail "uniform out of range"
  done

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" (5.0 /. 3.0) (Stats.variance xs);
  check_float "median" 2.5 (Stats.median xs);
  check_float "min" 1.0 (Stats.minimum xs);
  check_float "max" 4.0 (Stats.maximum xs)

let test_stats_quantile () =
  let xs = [| 10.0; 20.0; 30.0 |] in
  check_float "q0" 10.0 (Stats.quantile xs 0.0);
  check_float "q1" 30.0 (Stats.quantile xs 1.0);
  check_float "q0.5" 20.0 (Stats.quantile xs 0.5);
  check_float "q0.25 interpolates" 15.0 (Stats.quantile xs 0.25)

let test_stats_mae () =
  check_float "mae" 0.5
    (Stats.mean_abs_error [| 0.0; 1.0 |] [| 0.5; 0.5 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.mean_abs_error: length mismatch") (fun () ->
      ignore (Stats.mean_abs_error [| 1.0 |] [| 1.0; 2.0 |]))

let test_stats_cdf () =
  let xs = [| 0.1; 0.2; 0.2; 0.9 |] in
  let pts = Stats.cdf xs ~points:[| 0.0; 0.2; 1.0 |] in
  match pts with
  | [ (_, f0); (_, f1); (_, f2) ] ->
      check_float "F(0)" 0.0 f0;
      check_float "F(0.2)" 0.75 f1;
      check_float "F(1)" 1.0 f2
  | _ -> Alcotest.fail "wrong number of CDF points"

let test_stats_histogram () =
  let xs = [| 0.05; 0.15; 0.15; 0.95; -1.0; 2.0 |] in
  let h = Stats.histogram xs ~bins:10 ~lo:0.0 ~hi:1.0 in
  check_int "bin0 (incl. clamped low)" 2 h.(0);
  check_int "bin1" 2 h.(1);
  check_int "last bin (incl. clamped high)" 2 h.(9)

let sum = Array.fold_left ( + ) 0

let test_stats_histogram_edges () =
  (* x in (lo - width, lo): int_of_float truncation used to file this
     under bin 0 as if it were in range; [`Drop] must exclude it. *)
  let h =
    Stats.histogram ~out_of_range:`Drop [| -0.05 |] ~bins:10 ~lo:0.0 ~hi:1.0
  in
  check_int "just-below-lo is out of range" 0 (sum h);
  let h =
    Stats.histogram ~out_of_range:`Clamp [| -0.05 |] ~bins:10 ~lo:0.0 ~hi:1.0
  in
  check_int "just-below-lo clamps to bin 0" 1 h.(0);
  (* x = hi sits outside [lo, hi): last bin under clamp, gone under
     drop — both ends handled the same way. *)
  let clamp = Stats.histogram [| 1.0 |] ~bins:10 ~lo:0.0 ~hi:1.0 in
  check_int "x = hi clamps to the last bin" 1 clamp.(9);
  let drop =
    Stats.histogram ~out_of_range:`Drop [| 1.0 |] ~bins:10 ~lo:0.0 ~hi:1.0
  in
  check_int "x = hi drops" 0 (sum drop);
  (* NaN is dropped in both modes *)
  check_int "NaN dropped (clamp)" 1
    (sum (Stats.histogram [| nan; 0.5 |] ~bins:4 ~lo:0.0 ~hi:1.0));
  check_int "NaN dropped (drop)" 1
    (sum
       (Stats.histogram ~out_of_range:`Drop
          [| nan; 0.5 |]
          ~bins:4 ~lo:0.0 ~hi:1.0))

let test_stats_nan_rejected () =
  Alcotest.check_raises "quantile"
    (Invalid_argument "Stats.quantile: NaN sample") (fun () ->
      ignore (Stats.quantile [| 0.1; nan |] 0.5));
  Alcotest.check_raises "minimum"
    (Invalid_argument "Stats.minimum: NaN sample") (fun () ->
      ignore (Stats.minimum [| nan; 0.1 |]));
  Alcotest.check_raises "maximum"
    (Invalid_argument "Stats.maximum: NaN sample") (fun () ->
      ignore (Stats.maximum [| 0.1; nan |]))

let finite_samples =
  QCheck.(array_of_size Gen.(int_range 1 60) (float_range (-2.0) 2.0))

let prop_histogram_conservation =
  QCheck.Test.make ~name:"histogram: clamp counts every sample" ~count:200
    finite_samples (fun xs ->
      sum (Stats.histogram xs ~bins:7 ~lo:0.0 ~hi:1.0) = Array.length xs)

let prop_histogram_drop_vs_clamp =
  QCheck.Test.make
    ~name:"histogram: drop differs from clamp only in the edge bins"
    ~count:200 finite_samples (fun xs ->
      let bins = 7 in
      let clamp = Stats.histogram xs ~bins ~lo:0.0 ~hi:1.0 in
      let drop = Stats.histogram ~out_of_range:`Drop xs ~bins ~lo:0.0 ~hi:1.0 in
      let ok = ref (drop.(0) <= clamp.(0) && drop.(bins - 1) <= clamp.(bins - 1)) in
      for b = 1 to bins - 2 do
        if drop.(b) <> clamp.(b) then ok := false
      done;
      !ok)

let prop_quantile_ends =
  QCheck.Test.make ~name:"quantile: q=0 is minimum, q=1 is maximum"
    ~count:200 finite_samples (fun xs ->
      Stats.quantile xs 0.0 = Stats.minimum xs
      && Stats.quantile xs 1.0 = Stats.maximum xs)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile: monotone in q" ~count:200
    QCheck.(pair finite_samples (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (xs, (q1, q2)) ->
      let lo = min q1 q2 and hi = max q1 q2 in
      Stats.quantile xs lo <= Stats.quantile xs hi +. 1e-12)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean between min and max" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let prop_stats_cdf_monotone =
  QCheck.Test.make ~name:"cdf monotone, ends at 1" ~count:100
    QCheck.(array_of_size Gen.(int_range 1 60) (float_bound_exclusive 1.0))
    (fun xs ->
      let curve = Stats.cdf_curve xs ~steps:20 ~max_x:1.0 in
      let fs = List.map snd curve in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && mono rest
        | _ -> true
      in
      mono fs && abs_float (List.nth fs (List.length fs - 1) -. 1.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Combin                                                              *)
(* ------------------------------------------------------------------ *)

let test_choose () =
  check_int "C(5,2)" 10 (Combin.choose 5 2);
  check_int "C(5,0)" 1 (Combin.choose 5 0);
  check_int "C(5,5)" 1 (Combin.choose 5 5);
  check_int "C(5,6)" 0 (Combin.choose 5 6);
  check_int "C(5,-1)" 0 (Combin.choose 5 (-1));
  check_int "C(40,20)" 137846528820 (Combin.choose 40 20)

(* Saturation at the overflow boundary.  C(66,33) ≈ 7.2e18 exceeds
   [max_int] on 64-bit; the old guard multiplied first and checked the
   wrapped product afterwards, which could land back in range and
   return garbage instead of [max_int]. *)
let test_choose_overflow () =
  check_int "C(66,33) saturates" max_int (Combin.choose 66 33);
  check_int "C(1000,500) saturates" max_int (Combin.choose 1000 500);
  check_int "C(n,1) = n stays exact at huge n" (max_int / 2)
    (Combin.choose (max_int / 2) 1);
  check_int "C(10000,2)" 49995000 (Combin.choose 10000 2);
  (* The guard is conservative: a value may saturate even though the
     exact result fits (its intermediate product overflows).  Either
     way the result must never be a wrapped (negative or small) int. *)
  check_bool "C(64,32) exact or saturated" true
    (let v = Combin.choose 64 32 in
     v = 1832624140942590534 || v = max_int)

(* Reference via Pascal's triangle with saturating addition: exact
   whenever the true value fits in [int], [max_int] when it genuinely
   overflows.  [choose] may additionally saturate conservatively, but
   must never return anything other than the exact value or
   [max_int]. *)
let prop_choose_exact_or_saturated =
  QCheck.Test.make ~name:"choose is exact or saturates to max_int"
    ~count:200
    QCheck.(pair (int_range 0 120) (int_range 0 120))
    (fun (n, k) ->
      let sat_add a b = if a + b < 0 then max_int else a + b in
      let row = ref [| 1 |] in
      for i = 1 to n do
        let prev = !row in
        row :=
          Array.init (i + 1) (fun j ->
              let get x = if x < 0 || x >= i then 0 else prev.(x) in
              sat_add (get (j - 1)) (get j))
      done;
      let reference = if k > n then 0 else !row.(k) in
      let c = Combin.choose n k in
      c = reference || (c = max_int && reference > 1_000_000))

let test_combinations () =
  let cs = Combin.combinations [| 1; 2; 3; 4 |] 2 in
  check_int "C(4,2) count" 6 (List.length cs);
  Alcotest.(check (list (list int)))
    "lexicographic order"
    [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ]; [ 3; 4 ] ]
    (List.map Array.to_list cs)

let test_combinations_edge () =
  check_int "k=0 yields the empty set" 1
    (List.length (Combin.combinations [| 1; 2 |] 0));
  check_int "k>n yields nothing" 0
    (List.length (Combin.combinations [| 1; 2 |] 3))

(* Drain [cur] over [xs]: every subset it visits, in order. *)
let drain ?(stop_after = max_int) xs cur =
  let acc = ref [] and n = ref 0 in
  let k = ref (if stop_after > 0 then Combin.next cur else 0) in
  while !k > 0 do
    acc := Array.init !k (fun i -> xs.(Combin.index cur i)) :: !acc;
    incr n;
    k := if !n < stop_after then Combin.next cur else 0
  done;
  List.rev_map Array.to_list !acc

let test_subsets_by_size () =
  let xs = [| 1; 2; 3 |] in
  let subsets = drain xs (Combin.cursor ~n:3 ~max_size:2 ~limit:100) in
  check_int "3 singletons + 3 pairs" 6 (List.length subsets);
  (* Increasing size: all singletons come before any pair;
     lexicographic within a size. *)
  Alcotest.(check (list (list int)))
    "size, then lexicographic order"
    [ [ 1 ]; [ 2 ]; [ 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    subsets;
  check_int "max_size above n stops at n" 7
    (List.length (drain xs (Combin.cursor ~n:3 ~max_size:8 ~limit:100)));
  check_int "empty pool" 0
    (List.length (drain [||] (Combin.cursor ~n:0 ~max_size:8 ~limit:100)))

let test_subsets_limit () =
  let xs = [| 1; 2; 3; 4 |] in
  let cur = Combin.cursor ~n:4 ~max_size:4 ~limit:5 in
  check_int "limit respected" 5 (List.length (drain xs cur));
  check_int "exhausted stays exhausted" 0 (Combin.next cur);
  check_int "limit 0 visits nothing" 0
    (List.length (drain xs (Combin.cursor ~n:4 ~max_size:4 ~limit:0)))

(* A cursor left after any visit resumes with the next subset: stopping
   and resuming visits the same sequence as one uninterrupted drain. *)
let test_subsets_stop () =
  let xs = [| 1; 2; 3; 4 |] in
  let whole = drain xs (Combin.cursor ~n:4 ~max_size:3 ~limit:12) in
  let cur = Combin.cursor ~n:4 ~max_size:3 ~limit:12 in
  let first = drain ~stop_after:2 xs cur in
  check_int "stopped after 2" 2 (List.length first);
  let second = drain ~stop_after:5 xs cur in
  let rest = drain xs cur in
  Alcotest.(check (list (list int)))
    "resumed sequence" whole
    (first @ second @ rest);
  check_int "limit counts every visit" 12 (List.length whole)

let test_iter_sized () =
  let collect ~size ~limit =
    let acc = ref [] in
    let n =
      Combin.iter_sized [| 1; 2; 3; 4 |] ~size ~limit (fun c ->
          acc := Array.to_list c :: !acc;
          `Continue)
    in
    (n, List.rev !acc)
  in
  let n, cs = collect ~size:2 ~limit:100 in
  check_int "all pairs visited" 6 n;
  Alcotest.(check (list (list int)))
    "lexicographic order"
    [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ]; [ 3; 4 ] ]
    cs;
  let n, cs = collect ~size:2 ~limit:4 in
  check_int "limit stops before the 5th visit" 4 n;
  check_int "limited prefix" 4 (List.length cs);
  let n, _ = collect ~size:0 ~limit:100 in
  check_int "size 0 visits the empty set" 1 n;
  let stopped = ref 0 in
  let n =
    Combin.iter_sized [| 1; 2; 3; 4 |] ~size:1 ~limit:100 (fun _ ->
        incr stopped;
        if !stopped = 2 then `Stop else `Continue)
  in
  check_int "callback stop counts the stopping visit" 2 n

let prop_combination_count =
  QCheck.Test.make ~name:"combination count equals binomial" ~count:50
    QCheck.(pair (int_range 0 9) (int_range 0 9))
    (fun (n, k) ->
      let xs = Array.init n (fun i -> i) in
      List.length (Combin.combinations xs k) = Combin.choose n k)

(* The cursor visits exactly the sized combinations, size 1 first, cut
   after [limit] visits, wherever the caller pauses. *)
let prop_cursor_order =
  QCheck.Test.make ~name:"subset cursor = combinations by size, capped"
    ~count:200
    QCheck.(quad (int_range 0 9) (int_range 0 10) (int_range 0 600) small_nat)
    (fun (n, max_size, limit, pause) ->
      let xs = Array.init n (fun i -> i) in
      let expected =
        List.concat_map
          (fun k -> List.map Array.to_list (Combin.combinations xs k))
          (List.init (min max_size n) (fun k -> k + 1))
        |> List.filteri (fun i _ -> i < limit)
      in
      let cur = Combin.cursor ~n ~max_size ~limit in
      let first = drain ~stop_after:(pause + 1) xs cur in
      first @ drain xs cur = expected)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic set/get/clear" `Quick test_bitset_basic;
          Alcotest.test_case "set_all/clear_all" `Quick test_bitset_set_all;
          Alcotest.test_case "bounds checking" `Quick test_bitset_bounds;
          Alcotest.test_case "set operations" `Quick test_bitset_ops;
          Alcotest.test_case "iteration" `Quick test_bitset_iteration;
          qc prop_bitset_roundtrip;
          qc prop_bitset_to_string;
          qc prop_bitset_demorgan;
          qc prop_bitset_diff_disjoint;
          qc prop_bitset_word_ops_invariant;
          qc prop_bitset_inplace_equals_fresh;
          qc prop_bitset_word_iterators;
          qc prop_bitset_iter_matches_to_list;
          qc prop_bitset_unsafe_agrees;
          qc prop_bitset_predicates;
          qc prop_bitset_occupied_words;
        ] );
      ( "rng",
        [
          Alcotest.test_case "reproducible" `Quick test_rng_reproducible;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "biased bool" `Quick test_rng_bool_bias;
          Alcotest.test_case "bool extremes" `Quick test_rng_bool_extremes;
          Alcotest.test_case "sampling" `Quick test_rng_sample;
          Alcotest.test_case "weighted pick" `Quick test_rng_pick_weighted;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "integer-keyed split" `Quick test_rng_split_int;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance/median" `Quick test_stats_basic;
          Alcotest.test_case "quantiles" `Quick test_stats_quantile;
          Alcotest.test_case "mean abs error" `Quick test_stats_mae;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "histogram edges" `Quick
            test_stats_histogram_edges;
          Alcotest.test_case "NaN rejection" `Quick test_stats_nan_rejected;
          qc prop_stats_mean_bounds;
          qc prop_stats_cdf_monotone;
          qc prop_histogram_conservation;
          qc prop_histogram_drop_vs_clamp;
          qc prop_quantile_ends;
          qc prop_quantile_monotone;
        ] );
      ( "combin",
        [
          Alcotest.test_case "binomial" `Quick test_choose;
          Alcotest.test_case "binomial overflow saturation" `Quick
            test_choose_overflow;
          Alcotest.test_case "sized iteration" `Quick test_iter_sized;
          Alcotest.test_case "combinations" `Quick test_combinations;
          Alcotest.test_case "combination edges" `Quick
            test_combinations_edge;
          Alcotest.test_case "subsets by size" `Quick test_subsets_by_size;
          Alcotest.test_case "subset limit" `Quick test_subsets_limit;
          Alcotest.test_case "early stop" `Quick test_subsets_stop;
          qc prop_combination_count;
          qc prop_choose_exact_or_saturated;
          qc prop_cursor_order;
        ] );
    ]
