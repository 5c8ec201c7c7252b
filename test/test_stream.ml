(* Tests for the online sliding-window engine: window ring mechanics,
   snapshot round-trips (save → restore → continue must be bit-identical
   to a run that never stopped), corruption rejection, replay-source
   diagnostics, and the headline acceptance property — windowed
   streaming estimates exactly equal the batch pipeline over the same
   intervals of a simulated Netsim trace. *)

module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Window = Tomo_stream.Window
module Snapshot = Tomo_stream.Snapshot
module Source = Tomo_stream.Source
module Engine = Tomo_stream.Engine
module W = Tomo_experiments.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_failure_containing name needle f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" name
  | exception Failure msg ->
      if not (contains ~needle msg) then
        Alcotest.failf "%s: %S not in %S" name needle msg

(* ------------------------------------------------------------------ *)
(* Random tiny models and streams (for the qcheck properties)          *)
(* ------------------------------------------------------------------ *)

let shuffled_prefix rng n k =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

let random_model ?(min_paths = 3) rng =
  let n_links = 4 + Rng.int rng 6 in
  let n_paths = min_paths + Rng.int rng 5 in
  let paths =
    Array.init n_paths (fun _ ->
        let k = 1 + Rng.int rng (min 4 n_links) in
        shuffled_prefix rng n_links k)
  in
  let sets = ref [] and i = ref 0 in
  while !i < n_links do
    let k = min (n_links - !i) (1 + Rng.int rng 3) in
    sets := Array.init k (fun j -> !i + j) :: !sets;
    i := !i + k
  done;
  Tomo.Model.make ~n_links ~paths
    ~corr_sets:(Array.of_list (List.rev !sets))

let random_column rng n_paths =
  let b = Bitset.create n_paths in
  for p = 0 to n_paths - 1 do
    if Rng.bool rng ~p:0.7 then Bitset.set b p
  done;
  b

(* Everything an estimate exposes, as a structurally comparable value;
   float arrays compare bit-for-bit under (=) here, which is the point. *)
let fingerprint = function
  | None -> None
  | Some (e : Engine.estimate) ->
      Some
        ( e.Engine.tick,
          Array.copy e.Engine.result.Tomo.Pc_result.marginals,
          Array.copy e.Engine.result.Tomo.Pc_result.identifiable,
          e.Engine.result.Tomo.Pc_result.n_rows,
          e.Engine.result.Tomo.Pc_result.n_vars )

(* ------------------------------------------------------------------ *)
(* Window ring mechanics                                               *)
(* ------------------------------------------------------------------ *)

let test_window_ring () =
  let rng = Rng.create 42 in
  let n_paths = 7 and capacity = 5 and total = 17 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let w = Window.create ~capacity ~n_paths in
  check_bool "empty" false (Window.is_full w);
  check_int "occupancy 0" 0 (Window.occupancy w);
  for i = 0 to total - 1 do
    let evicted = Window.push w (Bitset.copy cols.(i)) in
    check_int "ticks" (i + 1) (Window.ticks w);
    check_int "occupancy" (min (i + 1) capacity) (Window.occupancy w);
    (match evicted with
    | Some b ->
        check_bool "evicts in FIFO order" true
          (i >= capacity && Bitset.equal b cols.(i - capacity))
    | None -> check_bool "no eviction during warm-up" true (i < capacity));
    (* always_good_paths == intersection of the filled columns *)
    let expect = Bitset.create n_paths in
    Bitset.set_all expect;
    for j = max 0 (i + 1 - capacity) to i do
      Bitset.inter_into ~into:expect cols.(j)
    done;
    check_bool "always_good == column intersection" true
      (Bitset.equal (Window.always_good_paths w) expect)
  done

(* qcheck: the window's incrementally maintained state — always-good set
   and per-path good counts — against a recount of the filled slots at
   every tick, through warm-up, eviction and a restore at a random
   tick.  Path counts run past one and two packed words so the XOR of
   evicted and fresh columns crosses word boundaries. *)
let prop_window_counts seed =
  let rng = Rng.create seed in
  let capacity = 1 + Rng.int rng 8 in
  let n_paths = 1 + Rng.int rng 140 in
  let p_good = 0.6 +. Rng.float rng 0.39 in
  let total = 1 + Rng.int rng 30 in
  let cols =
    Array.init total (fun _ ->
        let b = Bitset.create n_paths in
        for p = 0 to n_paths - 1 do
          if Rng.bool rng ~p:p_good then Bitset.set b p
        done;
        b)
  in
  let cut = Rng.int rng (total + 1) in
  let w = ref (Window.create ~capacity ~n_paths) in
  let ok = ref true in
  let check_state i =
    let first = max 0 (i + 1 - capacity) in
    let expect = Bitset.create n_paths in
    Bitset.set_all expect;
    for j = first to i do
      Bitset.inter_into ~into:expect cols.(j)
    done;
    if not (Bitset.equal (Window.always_good_paths !w) expect) then
      ok := false;
    let obs = Window.observations !w in
    for p = 0 to n_paths - 1 do
      let n = ref 0 in
      for j = first to i do
        if Bitset.get cols.(j) p then incr n
      done;
      if Tomo.Observations.good_count obs ~path:p <> !n then ok := false
    done
  in
  for i = 0 to total - 1 do
    if i = cut then begin
      let columns =
        Array.init (Window.occupancy !w) (fun slot ->
            Bitset.copy (Window.column !w ~slot))
      in
      w :=
        Window.restore ~capacity ~n_paths ~ticks:(Window.ticks !w) ~columns;
      if i > 0 then check_state (i - 1)
    end;
    (match Window.push !w (Bitset.copy cols.(i)) with
    | Some evicted ->
        if i < capacity || not (Bitset.equal evicted cols.(i - capacity))
        then ok := false
    | None -> if i >= capacity then ok := false);
    check_state i
  done;
  !ok

let window_counts_qcheck =
  QCheck.Test.make ~count:200
    ~name:"always-good set and good counts == recount of filled slots"
    QCheck.(int_range 0 100_000)
    prop_window_counts

(* ------------------------------------------------------------------ *)
(* qcheck: save → restore → continue is bit-identical                  *)
(* ------------------------------------------------------------------ *)

let prop_snapshot_resume seed =
  let rng = Rng.create seed in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 2 + Rng.int rng 4 in
  let total = window + 1 + Rng.int rng 10 in
  let cut = Rng.int rng (total + 1) in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  (* Run A: never interrupted. *)
  let a = Engine.create ~model ~window () in
  let expected =
    Array.init total (fun i ->
        fingerprint (Engine.ingest a (Bitset.copy cols.(i))))
  in
  (* Run B: killed after [cut] ticks, serialized, restored, continued. *)
  let b = Engine.create ~model ~window () in
  let ok = ref true in
  for i = 0 to cut - 1 do
    if fingerprint (Engine.ingest b (Bitset.copy cols.(i))) <> expected.(i)
    then ok := false
  done;
  let restored =
    Engine.of_snapshot ~model
      (Snapshot.of_string (Snapshot.to_string (Engine.snapshot b)))
  in
  if Engine.ticks restored <> cut then ok := false;
  (* current() after a restore must agree with run A's estimate there *)
  if cut > 0 && fingerprint (Engine.current restored) <> expected.(cut - 1)
  then ok := false;
  for i = cut to total - 1 do
    if
      fingerprint (Engine.ingest restored (Bitset.copy cols.(i)))
      <> expected.(i)
    then ok := false
  done;
  !ok

let snapshot_resume_qcheck =
  QCheck.Test.make ~count:40
    ~name:"snapshot round-trip continues bit-identically"
    QCheck.(int_range 0 100_000)
    prop_snapshot_resume

(* ------------------------------------------------------------------ *)
(* qcheck: streaming == batch at every tick                            *)
(* ------------------------------------------------------------------ *)

(* What [batch-report] computes at [tick]: Correlation-complete over the
   window of intervals that ends there. *)
let batch_estimate model cols ~window ~tick =
  let obs =
    Tomo.Observations.create ~t_intervals:window
      ~n_paths:model.Tomo.Model.n_paths
  in
  for i = 0 to window - 1 do
    Tomo.Observations.set_interval_statuses obs ~interval:i
      ~good:cols.(tick - window + i)
  done;
  let result, engine = Tomo.Correlation_complete.compute model obs in
  { Engine.tick; result; engine }

let same_estimate ~window (a : Engine.estimate) (b : Engine.estimate) =
  let ra = a.Engine.result and rb = b.Engine.result in
  let bits = Int64.bits_of_float in
  a.Engine.tick = b.Engine.tick
  && Array.length ra.Tomo.Pc_result.marginals
     = Array.length rb.Tomo.Pc_result.marginals
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       ra.Tomo.Pc_result.marginals rb.Tomo.Pc_result.marginals
  && ra.Tomo.Pc_result.identifiable = rb.Tomo.Pc_result.identifiable
  && ra.Tomo.Pc_result.n_rows = rb.Tomo.Pc_result.n_rows
  && ra.Tomo.Pc_result.n_vars = rb.Tomo.Pc_result.n_vars
  && Engine.report_to_string ~window a = Engine.report_to_string ~window b

(* Every full-window tick of a random stream — re-selections and
   incremental count updates alike, windows down to one interval —
   against a batch run over the same intervals; at a random tick the
   engine is replaced by its own snapshot round-trip and the comparison
   goes on from there. *)
let streams_like_batch model cols ~window ~cut =
  let engine = ref (Engine.create ~model ~window ()) in
  let ok = ref true in
  let check tick = function
    | None -> if tick >= window then ok := false
    | Some e ->
        let batch () = batch_estimate model cols ~window ~tick in
        if tick < window || not (same_estimate ~window e (batch ())) then
          ok := false
  in
  for i = 0 to Array.length cols - 1 do
    if i = cut then begin
      engine :=
        Engine.of_snapshot ~model
          (Snapshot.of_string (Snapshot.to_string (Engine.snapshot !engine)));
      check i (Engine.current !engine)
    end;
    check (i + 1) (Engine.ingest !engine (Bitset.copy cols.(i)))
  done;
  !ok

let prop_streaming_equals_batch seed =
  let rng = Rng.create seed in
  let model = random_model rng in
  let window = 1 + Rng.int rng 6 in
  let total = 25 + Rng.int rng 11 in
  let cols =
    Array.init total (fun _ -> random_column rng model.Tomo.Model.n_paths)
  in
  let cut = Rng.int rng (total + 1) in
  streams_like_batch model cols ~window ~cut

let streaming_equals_batch_qcheck =
  QCheck.Test.make ~count:60 ~name:"streaming == batch at every tick"
    QCheck.(int_range 0 100_000)
    prop_streaming_equals_batch

(* ------------------------------------------------------------------ *)
(* The selection cache                                                 *)
(* ------------------------------------------------------------------ *)

(* A stream whose always-good set tours more distinct sets than the
   selection cache holds and comes back to them out of order.  Each
   visit holds one column for [window] ticks, so the visit ends with
   the always-good set equal to that column; with a window above one,
   the ticks between two visits see the two columns' intersection.
   The model has 16-20 paths, so it has tens of thousands of columns,
   more than the cache holds many times over.
   The tour:
   - visits distinct columns in turn until it has made 2-4 more
     distinct always-good sets than the cache holds, so the first
     answers are evicted, then the first column again and the last but
     one (a hit);
   - makes 10-15 random visits among them, never the same twice in a
     row, most of them hits on entries far back in the cache;
   - alternates two fresh columns [a] and [b] four times each: a miss,
     a first hit, a second hit (which rebuilds, though its entry is
     recent: the first hit kept nothing) and a hit that reuses what the
     second hit kept;
   - visits nine columns that do not hold [a], so neither they nor any
     set between them is [a]'s, and then [a] again: its entry has
     fallen past the first {!Engine.selection_cache_kept}, so this hit
     rebuilds too. *)
let cache_case seed =
  let rng = Rng.create (seed + 128_000) in
  let model = random_model ~min_paths:16 rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 1 + Rng.int rng 3 in
  let target = Engine.selection_cache_capacity + 2 + Rng.int rng 3 in
  let palette = ref [] and in_palette = Hashtbl.create 4096 in
  let sets = Hashtbl.create 4096 in
  let add s = Hashtbl.replace sets (Bitset.to_string s) () in
  while Hashtbl.length sets < target do
    let c = random_column rng n_paths in
    if not (Hashtbl.mem in_palette (Bitset.to_string c)) then begin
      (match !palette with
      | p :: _ when window > 1 -> add (Bitset.inter p c)
      | _ -> ());
      add c;
      Hashtbl.replace in_palette (Bitset.to_string c) ();
      palette := c :: !palette
    end
  done;
  let palette = Array.of_list (List.rev !palette) in
  let k = Array.length palette in
  let visits = ref [ 0; k - 2 ] in
  for _ = 1 to 10 + Rng.int rng 6 do
    let next = Rng.int rng (k - 1) in
    visits := (if next = List.hd !visits then k - 1 else next) :: !visits
  done;
  let tour =
    Array.to_list palette @ List.map (fun v -> palette.(v)) (List.rev !visits)
  in
  (* [a] and [b]: columns that are none of the tour's sets so far, [a]
     one that nine palette columns do not hold. *)
  let seen =
    let rec between = function
      | x :: (y :: _ as rest) -> Bitset.inter x y :: between rest
      | _ -> []
    in
    tour @ between tour
  in
  let rec new_set () =
    let c = random_column rng n_paths in
    if List.exists (Bitset.equal c) seen then new_set () else c
  in
  let rec pick_a () =
    let a = new_set () in
    match
      List.filter (fun c -> not (Bitset.subset a c)) (Array.to_list palette)
    with
    | c1 :: c2 :: c3 :: c4 :: c5 :: c6 :: c7 :: c8 :: c9 :: _ ->
        (a, [ c1; c2; c3; c4; c5; c6; c7; c8; c9 ])
    | _ -> pick_a ()
  in
  let a, away = pick_a () in
  let rec pick_b () =
    let b = new_set () in
    if Bitset.equal a b then pick_b () else b
  in
  let b = pick_b () in
  let visits =
    tour
    @ List.concat (List.init 4 (fun _ -> [ a; b ]))
    @ away @ [ a ]
  in
  let cols =
    List.concat_map (fun c -> List.init window (fun _ -> c)) visits
  in
  (model, Array.of_list cols, window)

(* The selected system behind two estimates: the rows' path sets and
   variables, the identifiable flags and the nullity. *)
let same_selection (a : Engine.estimate) (b : Engine.estimate) =
  let sa = a.Engine.engine.Tomo.Prob_engine.selection
  and sb = b.Engine.engine.Tomo.Prob_engine.selection in
  sa.Tomo.Algorithm1.rows = sb.Tomo.Algorithm1.rows
  && sa.Tomo.Algorithm1.identifiable = sb.Tomo.Algorithm1.identifiable
  && sa.Tomo.Algorithm1.nullity = sb.Tomo.Algorithm1.nullity

let with_metrics f =
  let was = Tomo_obs.Metrics.enabled () in
  Tomo_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Tomo_obs.Metrics.set_enabled was) f

let counter name =
  let c = Tomo_obs.Metrics.counter name in
  fun () -> Tomo_obs.Metrics.counter_value c

let selections = counter "alg1_selections"
let registries = counter "alg1_registries"
let factorizations = counter "sparse_chol_factorizations"
let kept_hits = counter "stream_selection_cache_built_hits"

(* [ingest] that also says what the tick's reselect was, read off the
   engine's status and counters: none, a miss, a hit that rebuilt its
   selection from the cached answer, or a hit that reused the
   selection its entry kept. *)
type reselect = Unchanged | Miss | Rebuilt_hit | Kept_hit

let ingest_noting engine col =
  with_metrics @@ fun () ->
  let before = Engine.status engine and kept = kept_hits () in
  let est = Engine.ingest engine col in
  let after = Engine.status engine in
  ( est,
    if after.Engine.st_reselects = before.Engine.st_reselects then Unchanged
    else if
      after.Engine.st_selection_cache.Engine.hits
      = before.Engine.st_selection_cache.Engine.hits
    then Miss
    else if kept_hits () > kept then Kept_hit
    else Rebuilt_hit )

(* The cache as specified: its always-good sets (as their bytes), most
   recently used first, each with the hits on it.  An entry keeps a
   selection from its second hit on, while it is among the first
   {!Engine.selection_cache_kept}: a hit on it reuses the selection
   exactly when it was hit twice before and is still among them. *)
type spec_entry = { set : string; mutable hits : int }

(* The spec's answer to a reselect to [always]: what it should be, the
   position and earlier hits of the entry it hits, and the new cache. *)
let spec_reselect cache always =
  let rec find i = function
    | [] -> None
    | e :: rest ->
        if String.equal e.set always then Some (i, e) else find (i + 1) rest
  in
  match find 0 cache with
  | None ->
      let older =
        List.filteri (fun i _ -> i < Engine.selection_cache_capacity - 1) cache
      in
      (Miss, -1, 0, { set = always; hits = 0 } :: older)
  | Some (i, e) ->
      let earlier = e.hits in
      e.hits <- e.hits + 1;
      ( (if i < Engine.selection_cache_kept && earlier >= 2 then Kept_hit
         else Rebuilt_hit),
        i,
        earlier,
        e :: List.filter (fun x -> x != e) cache )

let spec_kept cache =
  List.length
    (List.filteri
       (fun i e -> i < Engine.selection_cache_kept && e.hits >= 2)
       cache)

(* Every full-window tick of the tour against the batch pipeline over
   the same intervals, bitwise, and the selection behind it against
   the batch selection; every reselect against the spec: a miss runs
   Algorithm 1, a rebuilt hit builds a registry but selects nothing, a
   kept hit builds no registry and factors nothing and its selection
   and row masks are those of the last reselect to the same always-good
   set ([==]), and the
   cache holds as many entries, and as many kept selections, as the
   spec's.  The tour must evict answers (more misses than the cache has
   entries), hit an entry whose first hit kept nothing, reuse a kept
   selection, and hit an entry that kept one and then fell past the
   first {!Engine.selection_cache_kept}, which rebuilds. *)
let prop_cache_like_batch seed =
  let model, cols, window = cache_case seed in
  let engine = Engine.create ~model ~window () in
  let ok = ref true and last = Hashtbl.create 4096 and spec = ref [] in
  let second_hits = ref 0 and kept = ref 0 and dropped = ref 0 in
  Array.iteri
    (fun i col ->
      let tick = i + 1 in
      let before = (selections (), registries (), factorizations ()) in
      let est, reselect = ingest_noting engine (Bitset.copy col) in
      if reselect <> Unchanged then begin
        let always =
          Bitset.to_string (Window.always_good_paths (Engine.window engine))
        in
        let expected, position, earlier, cache = spec_reselect !spec always in
        spec := cache;
        let s, r, f = before in
        let moved =
          (selections () - s, registries () - r, factorizations () - f)
        in
        let selection (e : Engine.estimate) =
          e.Engine.engine.Tomo.Prob_engine.selection
        in
        let current = (Engine.row_masks engine, Option.map selection est) in
        (match reselect with
        | Miss -> if moved <> (1, 1, 1) then ok := false
        | Rebuilt_hit ->
            if moved <> (0, 1, 1) then ok := false;
            if earlier = 1 && position < Engine.selection_cache_kept then
              incr second_hits;
            if earlier >= 2 && position >= Engine.selection_cache_kept then
              incr dropped
        | Kept_hit -> (
            incr kept;
            if moved <> (0, 0, 0) then ok := false;
            match (Hashtbl.find_opt last always, current) with
            | Some (Some m, Some s), (Some m', Some s')
              when m == m' && s == s' ->
                ()
            | _ -> ok := false)
        | Unchanged -> ());
        if reselect <> expected then ok := false;
        let c = (Engine.status engine).Engine.st_selection_cache in
        if
          c.Engine.entries <> List.length !spec
          || c.Engine.built <> spec_kept !spec
        then ok := false;
        Hashtbl.replace last always current
      end;
      match est with
      | None -> if tick >= window then ok := false
      | Some e ->
          let batch = batch_estimate model cols ~window ~tick in
          if
            tick < window
            || not (same_estimate ~window e batch && same_selection e batch)
          then ok := false)
    cols;
  let c = (Engine.status engine).Engine.st_selection_cache in
  !ok && !second_hits > 0 && !kept > 0 && !dropped > 0
  && c.Engine.misses > Engine.selection_cache_capacity
  && c.Engine.entries = Engine.selection_cache_capacity

let cache_like_batch_qcheck =
  QCheck.Test.make ~count:60
    ~name:"selection cache: hits, misses, evictions; == batch"
    (Qgen.int_range 0 100_000)
    prop_cache_like_batch

(* A run killed right after its first kept hit (a hit that reused the
   selection its entry kept), restored from its snapshot and continued
   reports what the run that never stopped reports, at every tick; the
   restored engine's cache starts empty. *)
let test_restore_after_hit () =
  for seed = 0 to 9 do
    let model, cols, window = cache_case seed in
    let a = Engine.create ~model ~window () in
    let report e = Option.map (Engine.report_to_string ~window) e in
    let first_kept_hit = ref None in
    let expected =
      Array.mapi
        (fun i col ->
          let est, reselect = ingest_noting a (Bitset.copy col) in
          if !first_kept_hit = None && reselect = Kept_hit then
            first_kept_hit := Some (i + 1);
          report est)
        cols
    in
    let cut =
      match !first_kept_hit with
      | Some cut -> cut
      | None -> Alcotest.failf "seed %d: no kept hit" seed
    in
    let b = Engine.create ~model ~window () in
    for i = 0 to cut - 1 do
      ignore (Engine.ingest b (Bitset.copy cols.(i)))
    done;
    let restored =
      Engine.of_snapshot ~model
        (Snapshot.of_string (Snapshot.to_string (Engine.snapshot b)))
    in
    let c = (Engine.status restored).Engine.st_selection_cache in
    check_int "restored cache is empty" 0
      (c.Engine.entries + c.Engine.hits + c.Engine.built);
    check_bool "current() after the restore" true
      (report (Engine.current restored) = expected.(cut - 1));
    for i = cut to Array.length cols - 1 do
      if report (Engine.ingest restored (Bitset.copy cols.(i))) <> expected.(i)
      then Alcotest.failf "seed %d: report differs at tick %d" seed (i + 1)
    done
  done

(* The same on random models over 64-200 paths, where a selected row's
   path mask spans up to four words, so the engine's per-word count
   updates cross word boundaries; the small models above fit every mask
   in one word.  About a third of the paths are good but for a rare
   congested interval, and every other path is congested at least once
   in any [window] consecutive intervals (at its own phase), so the
   always-good set holds across most ticks: those ticks update the
   counts, and the rare interval forces a re-selection
   ({!test_wide_rows_span_words} checks both). *)
let random_wide_model rng =
  let n_links = 16 + Rng.int rng 17 in
  let n_paths = 64 + Rng.int rng 137 in
  let paths =
    Array.init n_paths (fun _ ->
        shuffled_prefix rng n_links (1 + Rng.int rng 4))
  in
  let sets = ref [] and i = ref 0 in
  while !i < n_links do
    let k = min (n_links - !i) (1 + Rng.int rng 3) in
    sets := Array.init k (fun j -> !i + j) :: !sets;
    i := !i + k
  done;
  Tomo.Model.make ~n_links ~paths
    ~corr_sets:(Array.of_list (List.rev !sets))

let wide_case seed =
  let rng = Rng.create (seed + 64_000) in
  let model = random_wide_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 2 + Rng.int rng 5 in
  let total = 20 + Rng.int rng 11 in
  let steady = Array.init n_paths (fun _ -> Rng.bool rng ~p:0.35) in
  let cols =
    Array.init total (fun t ->
        let b = Bitset.create n_paths in
        for p = 0 to n_paths - 1 do
          let good =
            if steady.(p) then not (Rng.bool rng ~p:0.01)
            else (t + p) mod window <> 0 && Rng.bool rng ~p:0.7
          in
          if good then Bitset.set b p
        done;
        b)
  in
  (model, cols, window, Rng.int rng (total + 1))

let wide_streaming_equals_batch_qcheck =
  QCheck.Test.make ~count:25
    ~name:"streaming == batch at every tick, masks over 2-4 words"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let model, cols, window, cut = wide_case seed in
      streams_like_batch model cols ~window ~cut)

(* The wide cases estimate on ticks that keep the selection, and select
   rows whose paths lie in two or more words, some of them in two
   consecutive words. *)
let test_wide_rows_span_words () =
  let kept = ref 0 and multi = ref 0 and adjacent = ref 0 in
  for seed = 0 to 19 do
    let model, cols, window, _ = wide_case seed in
    let engine = Engine.create ~model ~window () in
    Array.iter
      (fun col ->
        let before = (Engine.status engine).Engine.st_reselects in
        match Engine.ingest engine (Bitset.copy col) with
        | None -> ()
        | Some e ->
            if (Engine.status engine).Engine.st_reselects = before then
              incr kept;
            Array.iter
              (fun (r : Tomo.Eqn.row) ->
                let words =
                  List.sort_uniq compare
                    (Array.to_list
                       (Array.map
                          (fun p -> p / Bitset.word_bits)
                          r.Tomo.Eqn.paths))
                in
                if List.length words >= 2 then incr multi;
                if List.exists (fun w -> List.mem (w + 1) words) words then
                  incr adjacent)
              e.Engine.engine.Tomo.Prob_engine.selection.Tomo.Algorithm1.rows)
      cols
  done;
  check_bool (Printf.sprintf "ticks keeping the selection (%d)" !kept) true
    (!kept > 0);
  check_bool (Printf.sprintf "rows over two or more words (%d)" !multi) true
    (!multi > 0);
  check_bool
    (Printf.sprintf "rows over two consecutive words (%d)" !adjacent)
    true (!adjacent > 0)

(* The same on one correlation set wider than a word: 70 links covered
   by the chain paths [i; i+1], each good in an interval with
   probability 0.3, so that a 4-interval window rarely certifies a link
   and masks take two words at every tick. *)
let test_wide_streaming_equals_batch () =
  let n = 70 and window = 4 and total = 24 in
  let model =
    Tomo.Model.make ~n_links:n
      ~paths:(Array.init (n - 1) (fun i -> [| i; i + 1 |]))
      ~corr_sets:[| Array.init n Fun.id |]
  in
  let rng = Rng.create 70 in
  let cols =
    Array.init total (fun _ ->
        let b = Bitset.create (n - 1) in
        for p = 0 to n - 2 do
          if Rng.bool rng ~p:0.3 then Bitset.set b p
        done;
        b)
  in
  for tick = window to total do
    let e = batch_estimate model cols ~window ~tick in
    check_bool
      (Printf.sprintf "tick %d: more than a word of effective links" tick)
      true
      (Bitset.count e.Engine.result.Tomo.Pc_result.effective > Sys.int_size);
    check_bool (Printf.sprintf "tick %d: rows selected" tick) true
      (e.Engine.result.Tomo.Pc_result.n_rows > 0)
  done;
  check_bool "streaming == batch, snapshot round-trip at tick 11" true
    (streams_like_batch model cols ~window ~cut:11)

(* ------------------------------------------------------------------ *)
(* Snapshot corruption rejection                                       *)
(* ------------------------------------------------------------------ *)

let sample_snapshot () =
  let rng = Rng.create 9 in
  let model = Tomo.Toy.case1 () in
  let e = Engine.create ~model ~window:3 () in
  for _ = 1 to 5 do
    ignore (Engine.ingest e (random_column rng model.Tomo.Model.n_paths))
  done;
  Snapshot.to_string (Engine.snapshot e)

let test_snapshot_corruption () =
  let s = sample_snapshot () in
  (* sanity: the pristine string parses *)
  ignore (Snapshot.of_string s);
  (* flip one status bit inside a column line *)
  let col_at =
    let rec find i =
      if i + 4 > String.length s then Alcotest.fail "no col line"
      else if String.sub s i 4 = "col " then i
      else find (i + 1)
    in
    find 0
  in
  let bit_at =
    let rec find i =
      match s.[i] with
      | '0' | '1' -> i
      | _ -> find (i + 1)
    in
    find (col_at + 6)
  in
  let flipped = Bytes.of_string s in
  Bytes.set flipped bit_at (if s.[bit_at] = '1' then '0' else '1');
  check_failure_containing "bit flip" "corrupted snapshot" (fun () ->
      Snapshot.of_string (Bytes.to_string flipped));
  (* truncation: a torn write that lost the tail *)
  check_failure_containing "truncated" "corrupted snapshot" (fun () ->
      Snapshot.of_string (String.sub s 0 (String.length s / 2)));
  (* tampered checksum trailer *)
  let tampered =
    let b = Bytes.of_string s in
    let i = String.length s - 2 in
    Bytes.set b i (if s.[i] = '0' then '1' else '0');
    Bytes.to_string b
  in
  check_failure_containing "bad checksum" "corrupted snapshot" (fun () ->
      Snapshot.of_string tampered);
  (* empty file (e.g. crash before any write) *)
  check_failure_containing "empty" "corrupted snapshot" (fun () ->
      Snapshot.of_string "")

(* A snapshot names its model by fingerprint: restoring it onto another
   model with the same path count fails, and the same window without
   the [model] line (a file written before snapshots recorded it)
   restores onto either. *)
let test_snapshot_model_identity () =
  let model = Tomo.Toy.case1 () in
  let n_paths = model.Tomo.Model.n_paths in
  let paths = Array.init n_paths (fun p -> [| p |]) in
  let other =
    Tomo.Model.make ~n_links:n_paths ~paths
      ~corr_sets:(Array.init n_paths (fun l -> [| l |]))
  in
  let e = Engine.create ~model ~window:3 () in
  let rng = Rng.create 9 in
  for _ = 1 to 5 do
    ignore (Engine.ingest e (random_column rng n_paths))
  done;
  let text = Snapshot.to_string (Engine.snapshot e) in
  check_bool "model line" true
    (contains ~needle:"\nmodel fnv1a64 " text);
  let snap = Snapshot.of_string text in
  check_bool "fingerprint read back" true
    (snap.Snapshot.model = Some (Snapshot.model_fingerprint model));
  check_bool "models told apart" true
    (Snapshot.model_fingerprint model <> Snapshot.model_fingerprint other);
  ignore (Engine.of_snapshot ~model snap);
  check_failure_containing "another model" "snapshot is of another model"
    (fun () -> Engine.of_snapshot ~model:other snap);
  let bare =
    Snapshot.of_string (Snapshot.to_string { snap with Snapshot.model = None })
  in
  check_bool "no model line" false
    (contains ~needle:"model" (Snapshot.to_string bare));
  ignore (Engine.of_snapshot ~model bare);
  ignore (Engine.of_snapshot ~model:other bare)

(* ------------------------------------------------------------------ *)
(* Replay sources: diagnostics and fast-forward                        *)
(* ------------------------------------------------------------------ *)

let with_temp_file contents f =
  let path = Filename.temp_file "tomo_stream_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_trace_source_errors () =
  (* ragged tick line: 2 status chars for 3 paths, on line 4 *)
  with_temp_file "tomo-trace v1\npaths 3\ntick 0 101\ntick 1 10\n"
    (fun path ->
      let src = Source.of_trace_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () ->
          ignore (Source.next src);
          check_failure_containing "ragged tick" (path ^ ":4") (fun () ->
              Source.next src)));
  (* bad header fails eagerly, naming line 1 *)
  with_temp_file "bogus v9\n" (fun path ->
      check_failure_containing "bad header" (path ^ ":1") (fun () ->
          Source.of_trace_file path));
  (* out-of-order tick index *)
  with_temp_file "tomo-trace v1\npaths 2\ntick 1 10\n" (fun path ->
      let src = Source.of_trace_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () ->
          check_failure_containing "out-of-order tick" (path ^ ":3")
            (fun () -> Source.next src)))

(* The serve --replay sniffer: dispatch by header, and name BOTH
   accepted formats when the file is empty, truncated, or alien. *)
let test_replay_sniffing () =
  with_temp_file "tomo-trace v1\npaths 2\ntick 0 10\n" (fun path ->
      let src = Source.of_replay_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () -> check_int "trace dispatch" 2 (Source.n_paths src)));
  with_temp_file "tomo-observations v1\npaths 2 intervals 1\nrow 0 1\nrow 1 0\n"
    (fun path ->
      let src = Source.of_replay_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () -> check_int "observations dispatch" 2 (Source.n_paths src)));
  let expect_both_formats name contents =
    with_temp_file contents (fun path ->
        check_failure_containing name "tomo-trace v1" (fun () ->
            Source.of_replay_file path);
        check_failure_containing name "tomo-observations v1" (fun () ->
            Source.of_replay_file path);
        check_failure_containing name path (fun () ->
            Source.of_replay_file path))
  in
  expect_both_formats "empty file" "";
  expect_both_formats "blank-only file" "\n\n";
  expect_both_formats "alien header" "csv,of,course\n1,2,3\n"

let test_observations_io_errors () =
  (* ragged row *)
  check_failure_containing "ragged row" "<string>:4" (fun () ->
      Tomo.Observations_io.of_string
        "tomo-observations v1\npaths 2 intervals 3\nrow 0 101\nrow 1 10\n");
  (* truncated: a row short *)
  check_failure_containing "truncated" "truncated input" (fun () ->
      Tomo.Observations_io.of_string
        "tomo-observations v1\npaths 2 intervals 3\nrow 0 101\n")

let test_source_drop () =
  let rng = Rng.create 5 in
  let n_paths = 4 and total = 8 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let obs = Tomo.Observations.create ~t_intervals:total ~n_paths in
  Array.iteri
    (fun i c -> Tomo.Observations.set_interval_statuses obs ~interval:i ~good:c)
    cols;
  let src = Source.of_observations obs in
  check_int "drop skips what it can" 3 (Source.drop src 3);
  (match Source.next src with
  | Some c -> check_bool "resumes at the right interval" true (Bitset.equal c cols.(3))
  | None -> Alcotest.fail "stream ended early");
  check_int "drop past the end reports the shortfall" 4 (Source.drop src 10);
  check_bool "then the stream is dry" true (Source.next src = None)

(* Closing twice is a no-op, on a file-backed source and on a replayed
   matrix; a closed trace source is dry. *)
let test_source_close_idempotent () =
  with_temp_file "tomo-trace v1\npaths 2\ntick 0 10\n" (fun path ->
      let src = Source.of_trace_file path in
      Source.close src;
      Source.close src;
      check_bool "a closed trace is dry" true (Source.next src = None));
  let src =
    Source.of_observations
      (Tomo.Observations.create ~t_intervals:2 ~n_paths:3)
  in
  Source.close src;
  Source.close src

(* One run of intervals, written as a tomo-trace v1 file and as a
   tomo-observations v1 archive, replays the same columns through
   [of_replay_file]: both built-in sources agree. *)
let test_replay_formats_agree () =
  let rng = Rng.create 13 in
  let n_paths = 7 and total = 9 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let obs = Tomo.Observations.create ~t_intervals:total ~n_paths in
  Array.iteri
    (fun i c -> Tomo.Observations.set_interval_statuses obs ~interval:i ~good:c)
    cols;
  let trace =
    String.concat ""
      (Printf.sprintf "tomo-trace v1\npaths %d\n" n_paths
      :: List.mapi
           (fun i c ->
             Printf.sprintf "tick %d %s\n" i
               (String.init n_paths (fun p ->
                    if Bitset.get c p then '1' else '0')))
           (Array.to_list cols))
  in
  let replay contents =
    with_temp_file contents (fun path ->
        let src = Source.of_replay_file path in
        Fun.protect
          ~finally:(fun () -> Source.close src)
          (fun () ->
            check_int "paths" n_paths (Source.n_paths src);
            List.rev (Source.fold src (fun acc c -> c :: acc) [])))
  in
  let same name replayed =
    check_int (name ^ " intervals") total (List.length replayed);
    List.iteri
      (fun i c ->
        check_bool (Printf.sprintf "%s interval %d" name i) true
          (Bitset.equal c cols.(i)))
      replayed
  in
  same "trace" (replay trace);
  same "archive" (replay (Tomo.Observations_io.to_string obs))

(* A trace whose header fails validation is closed before the Failure
   leaves [of_trace_file] or [of_replay_file]: ten failing opens through
   each leave the process's descriptor count where it was. *)
let test_failed_opens_close_files () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let ten_failures name open_source contents =
    with_temp_file contents (fun path ->
        let before = open_fds () in
        for _ = 1 to 10 do
          match open_source path with
          | src ->
              Source.close src;
              Alcotest.failf "%s: opened" name
          | exception Failure _ -> ()
        done;
        check_int name before (open_fds ()))
  in
  ten_failures "bad header" Source.of_trace_file "bogus v9\n";
  ten_failures "empty trace" Source.of_trace_file "";
  ten_failures "truncated trace" Source.of_trace_file "tomo-trace v1\n";
  ten_failures "truncated trace, sniffed" Source.of_replay_file
    "tomo-trace v1\n";
  ten_failures "bad path count, sniffed" Source.of_replay_file
    "tomo-trace v1\npaths x\n"

(* ------------------------------------------------------------------ *)
(* Acceptance: streaming == batch on a simulated Netsim trace          *)
(* ------------------------------------------------------------------ *)

let test_streaming_equals_batch () =
  let window = 40 and total = 60 in
  let w =
    W.prepare
      (W.spec ~scale:W.Small ~seed:3 ~t_override:total W.Brite
         Tomo_netsim.Scenario.Random)
  in
  let model = w.W.model in
  (* Stream the run through Trace_io text and a replay source, exactly
     as `tomo_cli serve --replay` would. *)
  let last =
    with_temp_file (Tomo_netsim.Trace_io.to_string w.W.run) (fun path ->
        let src = Source.of_trace_file path in
        Fun.protect
          ~finally:(fun () -> Source.close src)
          (fun () ->
            let engine = Engine.create ~model ~window () in
            Source.fold src (fun last col -> Engine.ingest engine col |> Option.fold ~none:last ~some:Option.some) None))
  in
  let est =
    match last with
    | Some e -> e
    | None -> Alcotest.fail "window never filled"
  in
  check_int "saw the whole trace" total est.Engine.tick;
  (* Batch pipeline over the same (final) window of intervals. *)
  let obs =
    Tomo.Observations.create ~t_intervals:window
      ~n_paths:model.Tomo.Model.n_paths
  in
  for i = 0 to window - 1 do
    Tomo.Observations.set_interval_statuses obs ~interval:i
      ~good:
        (Tomo_netsim.Trace_io.interval_statuses w.W.run
           ~interval:(total - window + i))
  done;
  let batch, _ = Tomo.Correlation_complete.compute model obs in
  let s = est.Engine.result in
  check_int "rows" batch.Tomo.Pc_result.n_rows s.Tomo.Pc_result.n_rows;
  check_int "vars" batch.Tomo.Pc_result.n_vars s.Tomo.Pc_result.n_vars;
  check_bool "identifiable sets equal" true
    (batch.Tomo.Pc_result.identifiable = s.Tomo.Pc_result.identifiable);
  (* the acceptance bound is 1e-9; the design claim is bit-equality *)
  Array.iteri
    (fun e m ->
      if m <> s.Tomo.Pc_result.marginals.(e) then
        Alcotest.failf "link %d: batch %.17g <> stream %.17g" e m
          s.Tomo.Pc_result.marginals.(e))
    batch.Tomo.Pc_result.marginals;
  (* and the diffable report rendering agrees too *)
  let batch_est =
    { Engine.tick = est.Engine.tick; result = batch; engine = snd (Tomo.Correlation_complete.compute model obs) }
  in
  Alcotest.(check string)
    "tomo-report renders identically"
    (Engine.report_to_string ~window batch_est)
    (Engine.report_to_string ~window est)

(* ------------------------------------------------------------------ *)
(* One timer: each stage's span feeds its histogram                    *)
(* ------------------------------------------------------------------ *)

module Trace = Tomo_obs.Trace
module Metrics = Tomo_obs.Metrics

(* Durations of the spans named [name], in the order they closed (spans
   of one name never nest, so a depth-first walk over the roots visits
   them in that order). *)
let span_durations roots name =
  let acc = ref [] in
  let rec visit (s : Trace.span) =
    if s.Trace.name = name then acc := s.Trace.duration_s :: !acc;
    List.iter visit s.Trace.children
  in
  List.iter visit roots;
  List.rev !acc

(* A replay with tracing and metrics on, snapshots every 7 ticks: every
   stage histogram holds exactly its spans' durations — the same count
   and, summed in the same order, the same sum to the bit. *)
let test_one_timer () =
  let window = 20 and total = 60 in
  let w =
    W.prepare
      (W.spec ~scale:W.Small ~seed:3 ~t_override:total W.Brite
         Tomo_netsim.Scenario.Random)
  in
  Trace.set_enabled true;
  Trace.reset ();
  Metrics.set_enabled true;
  Metrics.reset ();
  let roots =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Metrics.set_enabled false)
      (fun () ->
        with_temp_file (Tomo_netsim.Trace_io.to_string w.W.run) (fun path ->
            let snap = Filename.temp_file "tomo_stream_test" ".snap" in
            Fun.protect
              ~finally:(fun () -> Sys.remove snap)
              (fun () ->
                let src = Source.of_trace_file path in
                let engine = Engine.create ~model:w.W.model ~window () in
                ignore
                  (Engine.run ~snapshot_out:snap ~snapshot_every:7 engine src
                     ~on_tick:(fun _ _ -> ()));
                Source.close src));
        Trace.take_roots ())
  in
  List.iter
    (fun (span, hist) ->
      let ds = span_durations roots span in
      let st = Metrics.histogram_stats (Metrics.histogram hist) in
      check_bool (span ^ " ran") true (ds <> []);
      check_int (hist ^ " counts its spans") (List.length ds) st.Metrics.count;
      let sum = List.fold_left ( +. ) 0.0 ds in
      if Int64.bits_of_float sum <> Int64.bits_of_float st.Metrics.sum then
        Alcotest.failf "%s sum %.17g <> %s durations %.17g" hist
          st.Metrics.sum span sum)
    [
      ("stream.tick", "stream_tick_s");
      ("stream.ingest", "stream_stage_ingest_s");
      ("stream.reselect", "stream_stage_reselect_s");
      ("stream.solve", "stream_stage_solve_s");
      ("stream.system_solve", "stream_solve_s");
      ("stream.snapshot", "stream_stage_snapshot_s");
    ];
  (* The shape the fan-in bench reads estimating ticks from. *)
  let estimating =
    List.filter
      (fun (r : Trace.span) ->
        r.Trace.name = "stream.tick"
        && List.exists
             (fun (c : Trace.span) -> c.Trace.name = "stream.solve")
             r.Trace.children)
      roots
  in
  check_int "stream.solve a direct child of every estimating tick"
    (total - window + 1) (List.length estimating);
  check_int "a snapshot every 7 ticks and one at the end" ((total / 7) + 1)
    (List.length (span_durations roots "stream.snapshot"));
  Metrics.reset ()

let () =
  Tomo_par.Pool.set_default_jobs 1;
  Alcotest.run "stream"
    [
      ( "window",
        [
          Alcotest.test_case "ring mechanics" `Quick test_window_ring;
          QCheck_alcotest.to_alcotest window_counts_qcheck;
        ] );
      ( "snapshot",
        [
          QCheck_alcotest.to_alcotest snapshot_resume_qcheck;
          Alcotest.test_case "corruption rejected" `Quick
            test_snapshot_corruption;
          Alcotest.test_case "restore after a cache hit" `Quick
            test_restore_after_hit;
          Alcotest.test_case "model identity" `Quick
            test_snapshot_model_identity;
        ] );
      ( "source",
        [
          Alcotest.test_case "trace diagnostics" `Quick
            test_trace_source_errors;
          Alcotest.test_case "replay format sniffing" `Quick
            test_replay_sniffing;
          Alcotest.test_case "observations diagnostics" `Quick
            test_observations_io_errors;
          Alcotest.test_case "drop fast-forward" `Quick test_source_drop;
          Alcotest.test_case "close is idempotent" `Quick
            test_source_close_idempotent;
          Alcotest.test_case "trace and archive replay alike" `Quick
            test_replay_formats_agree;
          Alcotest.test_case "failed opens close their files" `Quick
            test_failed_opens_close_files;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "streaming == batch on a Netsim trace" `Slow
            test_streaming_equals_batch;
        ] );
      ( "timer",
        [
          Alcotest.test_case "each stage's histogram equals its spans" `Quick
            test_one_timer;
        ] );
      ( "parity",
        [
          QCheck_alcotest.to_alcotest streaming_equals_batch_qcheck;
          Alcotest.test_case "70-link set: streaming == batch" `Quick
            test_wide_streaming_equals_batch;
          QCheck_alcotest.to_alcotest wide_streaming_equals_batch_qcheck;
          Alcotest.test_case "wide models: rows span words" `Quick
            test_wide_rows_span_words;
          QCheck_alcotest.to_alcotest cache_like_batch_qcheck;
        ] );
    ]
