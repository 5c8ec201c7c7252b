module Bitset = Tomo_util.Bitset
module Obs = Tomo_obs
module Pool = Tomo_par.Pool

let c_ticks = Obs.Metrics.counter "stream_ticks"
let c_estimates = Obs.Metrics.counter "stream_estimates"
let c_reselects = Obs.Metrics.counter "stream_reselects"
let c_cache_hits = Obs.Metrics.counter "stream_selection_cache_hits"
let c_cache_built_hits = Obs.Metrics.counter "stream_selection_cache_built_hits"
let g_occupancy = Obs.Metrics.gauge "stream_window_occupancy"
let g_capacity = Obs.Metrics.gauge "stream_window_capacity"

(* Each stage of the serve loop is one span feeding one histogram
   ({!Obs.Trace.with_span}; engine.mli lists the pairs), so the span tree
   and the stage profile agree to the bit, and a latency regression
   names its stage. *)
let h_tick = Obs.Metrics.histogram "stream_tick_s"
let h_solve = Obs.Metrics.histogram "stream_solve_s"
let h_stage_ingest = Obs.Metrics.histogram "stream_stage_ingest_s"
let h_stage_reselect = Obs.Metrics.histogram "stream_stage_reselect_s"
let h_stage_solve = Obs.Metrics.histogram "stream_stage_solve_s"
let h_stage_snapshot = Obs.Metrics.histogram "stream_stage_snapshot_s"

(* Each row's path mask, kept as the words it occupies
   ({!Bitset.occupied_words}), flat over the rows: row [i]'s nonzero
   words are [mask_bits.(p)] at word index [mask_word.(p)], for [p] from
   [mask_ptr.(i)] to [mask_ptr.(i + 1) - 1], so a count update reads
   only those words of the two columns. *)
type row_masks = {
  mask_ptr : int array;
  mask_word : int array;
  mask_bits : int array;
}

(* The engine's cached view of the selected equation system.  [counts]
   is maintained incrementally: pushing a batch changes exactly one ring
   slot, so each row's all-good count moves by the difference between the
   evicted and the fresh column.  [always_good] records the observation
   input the selection was derived from — Algorithm 1 reads observations
   only through the always-good path set, so the selection stays valid
   exactly as long as that set does. *)
type selection_state = {
  selection : Tomo.Algorithm1.selection;
  masks : row_masks;
  counts : int array;  (* per row: all-good count over the window *)
  always_good : Bitset.t;
}

type last_estimate = { at_tick : int; rows : int; vars : int; nullity : int }

(* Algorithm 1's answers for the last [selection_cache_capacity] distinct
   always-good sets the engine selected for (DESIGN, "Selection
   cache").  A window whose always-good set returns to one of them
   rebuilds its selection from the cached answer
   ({!Tomo.Algorithm1.of_decision}) instead of selecting again.  From
   its second hit on, an entry keeps the selection its latest rebuild
   made and that selection's row masks, every part of a selection state
   but the counts, which the window decides, for as long as it stays
   among the [selection_cache_kept] most recently used: a hit then
   reuses them.  Falling further back drops them, and the packed
   answer stays until the entry is evicted. *)
let selection_cache_capacity = 2048
let selection_cache_kept = 8

(* A cache entry, found by its key in a hash table and linked into a
   circular list in recency order: [older] leads from the most recently
   used entry to the least, whose [older] is the most recent again, and
   [newer] leads back.  An entry alone links to itself. *)
type entry = {
  key : string;  (* the always-good set's bytes ({!Bitset.to_string}) *)
  decision : Tomo.Algorithm1.decision;
  mutable hits : int;
  mutable kept : (Tomo.Algorithm1.selection * row_masks) option;
  mutable newer : entry;
  mutable older : entry;
}

type t = {
  model : Tomo.Model.t;
  window : Window.t;
  mutable sel : selection_state option;
  cache : (string, entry) Hashtbl.t;
  mutable newest : entry option;  (* the front of the recency list *)
  mutable answer_bytes : int;  (* the cached keys' and answers' bytes *)
  (* Per-engine lifetime stats behind [status] — the global Metrics
     counters aggregate across engines and reset with the registry, so
     the status view keeps its own. *)
  mutable n_estimates : int;
  mutable n_reselects : int;
  mutable n_cache_hits : int;
  mutable last : last_estimate option;  (* None before the first *)
}

type estimate = {
  tick : int;
  result : Tomo.Pc_result.t;
  engine : Tomo.Prob_engine.t;
}

let of_window model window =
  {
    model;
    window;
    sel = None;
    cache = Hashtbl.create 64;
    newest = None;
    answer_bytes = 0;
    n_estimates = 0;
    n_reselects = 0;
    n_cache_hits = 0;
    last = None;
  }

let create ~model ~window () =
  if window <= 0 then invalid_arg "Engine.create: no window capacity";
  of_window model
    (Window.create ~capacity:window ~n_paths:model.Tomo.Model.n_paths)

let window t = t.window
let ticks t = Window.ticks t.window

let snapshot t = Snapshot.capture t.window

let save_snapshot t path =
  Obs.Trace.with_span ~histogram:h_stage_snapshot "stream.snapshot"
  @@ fun () -> Snapshot.save path (snapshot t)

let of_snapshot ~model snap =
  if snap.Snapshot.n_paths <> model.Tomo.Model.n_paths then
    failwith
      (Printf.sprintf "snapshot has %d paths, model has %d"
         snap.Snapshot.n_paths model.Tomo.Model.n_paths);
  of_window model (Snapshot.window_of snap)

let masks_of t selection =
  let mask_ptr, mask_word, mask_bits =
    Bitset.occupied_words ~len:t.model.Tomo.Model.n_paths
      (Array.map (fun r -> r.Tomo.Eqn.paths) selection.Tomo.Algorithm1.rows)
  in
  { mask_ptr; mask_word; mask_bits }

(* Take [e] off the recency list. *)
let unlink t e =
  if e.older == e then t.newest <- None
  else begin
    e.newer.older <- e.older;
    e.older.newer <- e.newer;
    match t.newest with
    | Some n when n == e -> t.newest <- Some e.older
    | _ -> ()
  end;
  e.newer <- e;
  e.older <- e

(* Put [e], which is on no list, in front. *)
let push_front t e =
  (match t.newest with
  | None -> ()
  | Some n ->
      let oldest = n.newer in
      e.older <- n;
      e.newer <- oldest;
      n.newer <- e;
      oldest.older <- e);
  t.newest <- Some e

let entry_bytes e =
  String.length e.key + Tomo.Algorithm1.decision_bytes e.decision

(* A reselect looks its always-good set up in the cache.  A hit moves
   the entry to the front and reuses the selection and row masks it
   keeps, or rebuilds them from its answer and, from its second hit on,
   keeps them; a miss runs Algorithm 1 and puts its answer in front,
   evicting the least recently used entry of a full cache.  Either way
   the entry that moved past the first [selection_cache_kept] drops
   what it kept. *)
let build_selection t ~always =
  Obs.Trace.with_span ~histogram:h_stage_reselect "stream.reselect"
  @@ fun () ->
  Obs.Metrics.incr c_reselects;
  t.n_reselects <- t.n_reselects + 1;
  let key = Bitset.to_string always in
  let hit = Hashtbl.find_opt t.cache key in
  let kept = Option.bind hit (fun e -> e.kept) in
  if Obs.Events.enabled () then
    Obs.Events.emit "reselect"
      [
        ("tick", string_of_int (Window.ticks t.window));
        ("always_good", string_of_int (Bitset.count always));
        ("cached", string_of_bool (hit <> None));
        ("built", string_of_bool (Option.is_some kept));
      ];
  let obs = Window.observations t.window in
  let selection, masks =
    match hit with
    | Some entry ->
        Obs.Metrics.incr c_cache_hits;
        t.n_cache_hits <- t.n_cache_hits + 1;
        entry.hits <- entry.hits + 1;
        unlink t entry;
        push_front t entry;
        (match kept with
        | Some kept ->
            Obs.Metrics.incr c_cache_built_hits;
            kept
        | None ->
            let selection =
              Tomo.Algorithm1.of_decision t.model entry.decision
            in
            let rebuilt = (selection, masks_of t selection) in
            if entry.hits >= 2 then entry.kept <- Some rebuilt;
            rebuilt)
    | None ->
        let selection = Tomo.Algorithm1.select t.model obs in
        (match t.newest with
        | Some n when Hashtbl.length t.cache >= selection_cache_capacity ->
            let oldest = n.newer in
            unlink t oldest;
            Hashtbl.remove t.cache oldest.key;
            t.answer_bytes <- t.answer_bytes - entry_bytes oldest
        | _ -> ());
        let rec entry =
          {
            key;
            decision = Tomo.Algorithm1.decision selection;
            hits = 0;
            kept = None;
            newer = entry;
            older = entry;
          }
        in
        Hashtbl.replace t.cache key entry;
        push_front t entry;
        t.answer_bytes <- t.answer_bytes + entry_bytes entry;
        (selection, masks_of t selection)
  in
  (match t.newest with
  | Some n when Hashtbl.length t.cache > selection_cache_kept ->
      let rec nth e i = if i = 0 then e else nth e.older (i - 1) in
      (nth n selection_cache_kept).kept <- None
  | _ -> ());
  (* A fresh selection's counts are the batch pipeline's own, read off
     the full window's observations. *)
  let counts =
    Array.map
      (fun r -> Tomo.Observations.all_good_count obs r.Tomo.Eqn.paths)
      selection.Tomo.Algorithm1.rows
  in
  { selection; masks; counts; always_good = always }

let row_masks t = Option.map (fun s -> s.masks) t.sel

(* Refresh [sel.counts] after one ring slot was replaced: a row was
   all-good in the evicted column iff none of its paths is missing from
   it, and likewise for the fresh one.  Every index is in range by
   construction: [mask_ptr] has a slot per row and one more, the masks'
   word indices are of sets over the model's paths
   ({!Bitset.occupied_words} checks each path), and both columns are
   sets over those paths ({!Window.push} refuses any other), so the
   reads skip their bounds checks, about 30% of the loop's cost. *)
let update_counts sel ~evicted ~fresh =
  let { mask_ptr; mask_word; mask_bits } = sel.masks and counts = sel.counts in
  let evicted = Bitset.words evicted and fresh = Bitset.words fresh in
  for i = 0 to Array.length counts - 1 do
    let gone = ref 0 and missing = ref 0 in
    for p = Array.unsafe_get mask_ptr i to Array.unsafe_get mask_ptr (i + 1) - 1
    do
      let w = Array.unsafe_get mask_word p
      and x = Array.unsafe_get mask_bits p in
      gone := !gone lor (x land lnot (Array.unsafe_get evicted w));
      missing := !missing lor (x land lnot (Array.unsafe_get fresh w))
    done;
    let was = !gone = 0 and now = !missing = 0 in
    if was <> now then counts.(i) <- (counts.(i) + if now then 1 else -1)
  done

let solve t =
  Obs.Trace.with_span ~histogram:h_stage_solve "stream.solve" @@ fun () ->
  let s = Option.get t.sel in
  let obs = Window.observations t.window in
  let engine =
    Obs.Trace.with_span ~histogram:h_solve "stream.system_solve" (fun () ->
        Tomo.Prob_engine.solve_with_counts s.selection obs ~counts:s.counts)
  in
  (* Marginal extraction: one pass over the links, in link order.  Each
     link is a few floating-point operations on the solution, so the
     pass costs less than handing the correlation sets to a domain pool
     would. *)
  let marginals = Tomo.Prob_engine.link_marginals engine in
  Obs.Metrics.incr c_estimates;
  let sel = s.selection in
  let readout = sel.Tomo.Algorithm1.readout in
  let n_vars = Tomo.Eqn.n_vars sel.Tomo.Algorithm1.registry in
  let n_rows = Array.length sel.Tomo.Algorithm1.rows in
  let tick = Window.ticks t.window in
  t.n_estimates <- t.n_estimates + 1;
  t.last <-
    Some
      {
        at_tick = tick;
        rows = n_rows;
        vars = n_vars;
        nullity = sel.Tomo.Algorithm1.nullity;
      };
  {
    tick;
    result =
      {
        Tomo.Pc_result.marginals;
        identifiable = readout.Tomo.Readout.link_identifiable;
        effective = sel.Tomo.Algorithm1.effective;
        n_vars;
        n_rows;
      };
    engine;
  }

let ensure_selection t =
  let always = Window.always_good_paths t.window in
  match t.sel with
  | Some s when Bitset.equal s.always_good always -> ()
  | _ -> t.sel <- Some (build_selection t ~always)

let ingest ?pool:(_ : Pool.t option) t good =
  Obs.Trace.with_span ~histogram:h_tick "stream.tick" @@ fun () ->
  (* The ingest stage ends where re-selection begins: it holds the push
     and the count bookkeeping, [stream.reselect] the Algorithm 1
     re-run.  It answers whether the cached counts are current. *)
  let counted =
    Obs.Trace.with_span ~histogram:h_stage_ingest "stream.ingest" @@ fun () ->
    Obs.Metrics.incr c_ticks;
    let evicted = Window.push t.window good in
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.set_gauge g_occupancy
        (float_of_int (Window.occupancy t.window));
      Obs.Metrics.set_gauge g_capacity
        (float_of_int (Window.capacity t.window))
    end;
    match (t.sel, evicted) with
    | Some s, Some evicted
      when Bitset.equal s.always_good (Window.always_good_paths t.window) ->
        update_counts s ~evicted ~fresh:good;
        true
    | _ -> false
  in
  if not (Window.is_full t.window) then None
  else begin
    if not counted then ensure_selection t;
    Some (solve t)
  end

let current t =
  if not (Window.is_full t.window) then None
  else begin
    ensure_selection t;
    Some (solve t)
  end

let run ?snapshot_out ?(snapshot_every = 1) ?max_ticks t source
    ~on_tick =
  if snapshot_every <= 0 then
    invalid_arg "Engine.run: non-positive snapshot interval";
  let budget = match max_ticks with Some k -> k | None -> max_int in
  let maybe_snapshot () =
    match snapshot_out with
    | Some path when Window.ticks t.window mod snapshot_every = 0 ->
        save_snapshot t path
    | _ -> ()
  in
  let rec loop last n =
    if n >= budget then last
    else
      match Source.next source with
      | None -> last
      | Some good ->
          let est = ingest t good in
          on_tick t est;
          maybe_snapshot ();
          loop (match est with Some _ -> est | None -> last) (n + 1)
  in
  let last = loop None 0 in
  (* Always leave a snapshot at the stopping point, so a shutdown that
     falls between snapshot cadence ticks still resumes exactly here. *)
  (match snapshot_out with
  | Some path -> save_snapshot t path
  | None -> ());
  last

(* ------------------------------------------------------------------ *)
(* Status snapshot (for the telemetry exporter)                        *)
(* ------------------------------------------------------------------ *)

type selection_cache = {
  hits : int;
  misses : int;
  entries : int;
  built : int;
  answer_bytes : int;
}

type status = {
  st_ticks : int;
  st_occupancy : int;
  st_capacity : int;
  st_full : bool;
  st_estimates : int;
  st_reselects : int;
  st_selection_cache : selection_cache;
  st_last : last_estimate option;
}

(* A status is an immutable copy of the engine's scalar state: the serve
   loop captures one per tick and publishes it, so the exporter thread
   renders a consistent snapshot without ever touching live engine
   internals.  It reads no more than the first [selection_cache_kept]
   entries: only those can keep a selection. *)
let status t =
  let first = min selection_cache_kept (Hashtbl.length t.cache) in
  let rec kept e i =
    if i = first then 0
    else Bool.to_int (Option.is_some e.kept) + kept e.older (i + 1)
  in
  {
    st_ticks = Window.ticks t.window;
    st_occupancy = Window.occupancy t.window;
    st_capacity = Window.capacity t.window;
    st_full = Window.is_full t.window;
    st_estimates = t.n_estimates;
    st_reselects = t.n_reselects;
    st_selection_cache =
      {
        hits = t.n_cache_hits;
        misses = t.n_reselects - t.n_cache_hits;
        entries = Hashtbl.length t.cache;
        built = (match t.newest with None -> 0 | Some n -> kept n 0);
        answer_bytes = t.answer_bytes;
      };
    st_last = t.last;
  }

let status_json ?uptime_s ?snapshot_age_s ?last_error st =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "{\"status\":\"%s\",\"ticks\":%d,\"window\":{\"occupancy\":%d,\
     \"capacity\":%d,\"full\":%s}"
    (if st.st_full then "ok" else "warming_up")
    st.st_ticks st.st_occupancy st.st_capacity
    (if st.st_full then "true" else "false");
  Printf.bprintf b ",\"estimates\":%d,\"reselects\":%d" st.st_estimates
    st.st_reselects;
  let c = st.st_selection_cache in
  Printf.bprintf b
    ",\"selection_cache\":{\"hits\":%d,\"misses\":%d,\"entries\":%d,\
     \"built\":%d,\"answer_bytes\":%d}"
    c.hits c.misses c.entries c.built c.answer_bytes;
  Buffer.add_string b ",\"last_estimate\":";
  (match st.st_last with
  | None -> Buffer.add_string b "null"
  | Some l ->
      Printf.bprintf b
        "{\"tick\":%d,\"rows\":%d,\"vars\":%d,\"nullity\":%d}" l.at_tick
        l.rows l.vars l.nullity);
  (match uptime_s with
  | None -> ()
  | Some u -> Printf.bprintf b ",\"uptime_s\":%.3f" u);
  Buffer.add_string b ",\"snapshot_age_s\":";
  (match snapshot_age_s with
  | None -> Buffer.add_string b "null"
  | Some a -> Printf.bprintf b "%.3f" a);
  Buffer.add_string b ",\"last_error\":";
  (match last_error with
  | None -> Buffer.add_string b "null"
  | Some e -> Obs.Json.add_string b e);
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Diffable final report                                                *)
(* ------------------------------------------------------------------ *)

let report_to_string ~window est =
  let r = est.result in
  let n_links = Array.length r.Tomo.Pc_result.marginals in
  let buf = Buffer.create (n_links * 32) in
  Buffer.add_string buf "tomo-report v1\n";
  Buffer.add_string buf
    (Printf.sprintf "ticks %d window %d links %d\n" est.tick window n_links);
  Buffer.add_string buf
    (Printf.sprintf "rows %d vars %d\n" r.Tomo.Pc_result.n_rows
       r.Tomo.Pc_result.n_vars);
  for e = 0 to n_links - 1 do
    Buffer.add_string buf
      (Printf.sprintf "link %d %.17g %d\n" e
         r.Tomo.Pc_result.marginals.(e)
         (if r.Tomo.Pc_result.identifiable.(e) then 1 else 0))
  done;
  Buffer.contents buf
