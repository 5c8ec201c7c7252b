(* End-to-end serve-path benchmark.

   Drives the estimate loop [tomo_cli serve] runs from outside the
   library: three replay workloads hand generated tick columns to
   [Engine.ingest] in a closed loop, and the fan-in workload feeds a
   [Hub] over Unix socketpairs.  A plain run reports the end-to-end
   metrics; [--trace] additionally replays the same ticks through the
   layers' public functions with spans recorded here, and checks that
   this decomposition reproduces Engine's report byte-for-byte before
   reporting per-layer numbers.  See README.md for the metric
   definitions and the reason each workload exists. *)

module W = Tomo_experiments.Workload
module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Stats = Tomo_util.Stats
module Pool = Tomo_par.Pool
module Engine = Tomo_stream.Engine
module Window = Tomo_stream.Window
module Snapshot = Tomo_stream.Snapshot
module Record = Tomo_stream.Record
module Frame = Tomo_net.Frame
module Hub = Tomo_net.Hub
module Scenario = Tomo_netsim.Scenario
module Obs = Tomo_obs

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The shared host switches, for seconds to minutes at a time, between a
   fast state and one in which code runs 1.5-2x slower, and whole runs
   can fall into the slow state: no choice of which ticks to keep hides
   that.  Every timing is therefore rescaled by the host's speed when it
   was taken.  A fixed kernel, written here so that it never changes
   with the program, is timed right before and right after each timed
   interval.  The kernel is a few sweeps of a sparse least-squares update
   over a matrix of the workloads' size, and it allocates nothing.

   Tight loops like the kernel lose the most in the slow state: over 60
   runs of the three replay workloads, spread across both states, ticks
   and set-ups took about the kernel's time to the power 0.75 (0.7 to
   0.85 by workload and metric).  So an interval is multiplied by
   ([nominal_ns] over the mean of the two calibrations) to the power
   [sensitivity].  A timing thus reads as wall time on a host on which
   the kernel takes [nominal_ns]. *)
module Cal = struct
  let rows = 450 and cols = 1500 and per_row = 8

  let col =
    let s = ref 12345 in
    Array.init (rows * per_row) (fun _ ->
        s := ((!s * 1103515245) + 12345) land 0x3fffffff;
        !s mod cols)

  let value = Array.init (rows * per_row) (fun k -> 1.0 /. float_of_int (1 + (k mod 7)))
  let x = Array.make cols 0.0 and y = Array.make rows 0.0

  let kernel () =
    Array.fill x 0 cols 0.0;
    for _ = 1 to 8 do
      for r = 0 to rows - 1 do
        let s = ref (-1.0) in
        for k = r * per_row to ((r + 1) * per_row) - 1 do
          s := !s +. (value.(k) *. x.(col.(k)))
        done;
        y.(r) <- !s
      done;
      for r = 0 to rows - 1 do
        let g = y.(r) *. 0.01 in
        for k = r * per_row to ((r + 1) * per_row) - 1 do
          x.(col.(k)) <- x.(col.(k)) -. (g *. value.(k))
        done
      done
    done

  (* About the kernel's time in the fast state of a 2-vCPU Intel Xeon VM;
     the slow state takes 190-200 us. *)
  let nominal_ns = 100_000.0

  (* One timed kernel run, in ns. *)
  let time () =
    let a = now_ns () in
    kernel ();
    float_of_int (now_ns () - a)

  (* The median of a few runs, where one sample brackets seconds of work. *)
  let median_time () = Stats.median (Array.init 5 (fun _ -> time ()))

  let sensitivity = 0.75

  (* What to multiply a wall time by, given the calibrations around it. *)
  let factor ~before ~after = (2.0 *. nominal_ns /. (before +. after)) ** sensitivity
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type replay = {
  topology : W.topology;
  window : int;
  scored_min : int;
      (* scored ticks every run makes whatever [--seconds] says; [mae],
         the report gate against the traced run and the traced run
         itself cover exactly these, so they repeat bit-for-bit *)
}

type fanin = {
  f_window : int;
  ticks_per_peer : int;  (* including the window fill *)
  snapshot_every : int;
  jobs : int;
}

type shape = Replay of replay | Fanin of fanin

let workload_names = [ "steady"; "churn"; "sparse"; "fanin" ]

(* Every workload runs at medium scale (450 paths): paper-scale ticks
   (17-40 ms, 0.5 s for a window-5 reselect) leave too few ticks per run
   for percentiles that repeat on a shared 2-core host.  [scored_min]
   spans at least 10 windows, so [mae] averages over that many
   independent ones.  The smoke run keeps the shapes but only a few
   ticks. *)
let shape_of ~smoke name =
  let replay topology window scored_min =
    Replay
      {
        topology;
        window;
        scored_min = (if smoke then 20 else scored_min);
      }
  in
  match name with
  | "steady" -> replay W.Brite 100 2000
  | "churn" -> replay W.Brite 3 500
  | "sparse" -> replay W.Sparse 100 2000
  | "fanin" ->
      Fanin
        {
          f_window = 50;
          ticks_per_peer = (if smoke then 60 else 550);
          snapshot_every = 10;
          jobs = 2;
        }
  | _ -> invalid_arg name

(* The monitored network and its congestion process are fixed: topology,
   congestible links and their probabilities all come from this seed.
   [--seed] only draws which simulated intervals arrive, in which order.
   Redrawing the probabilities per seed moved per-tick cost by up to 8x
   between seeds, far more than any bound could absorb. *)
let system_seed = 7
let scale = W.Medium
let pool_intervals = 1000
let setup_reps = 25

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type system = {
  model : Tomo.Model.t;
  columns : Bitset.t array;  (* simulated intervals the ticks draw from *)
  truth : float array;  (* closed-form per-link congestion probability *)
}

let simulate topology kind =
  let w =
    W.prepare
      (W.spec ~scale ~seed:system_seed ~t_override:pool_intervals topology kind)
  in
  {
    model = w.W.model;
    columns =
      Array.init pool_intervals (fun t ->
          Tomo_netsim.Trace_io.interval_statuses w.W.run ~interval:t);
    truth = w.W.truth_marginals;
  }

(* Tick [i] of a run, drawn on demand with replacement from the
   simulated intervals; stationary intervals are exchangeable, so any
   draw is a valid stationary trace. *)
type ticks = {
  sys : system;
  rng : Rng.t;
  mutable drawn : int array;
  mutable n_drawn : int;
}

let ticks_of sys rng = { sys; rng; drawn = Array.make 256 0; n_drawn = 0 }

(* [a] (not empty) itself if it has a slot at index [n], else a copy
   twice as big. *)
let grown a n =
  if n < Array.length a then a
  else begin
    let bigger = Array.make (2 * n) a.(0) in
    Array.blit a 0 bigger 0 n;
    bigger
  end

let tick t i =
  while t.n_drawn <= i do
    t.drawn <- grown t.drawn t.n_drawn;
    t.drawn.(t.n_drawn) <- Rng.int t.rng (Array.length t.sys.columns);
    t.n_drawn <- t.n_drawn + 1
  done;
  t.sys.columns.(t.drawn.(i))

let overlay_spec topology =
  W.spec ~scale ~seed:system_seed topology Scenario.Random

(* What [batch-report] computes: Correlation-complete over the last
   [window] of [total] ticks. *)
let batch_estimate model t ~window ~total =
  let obs =
    Tomo.Observations.create ~t_intervals:window
      ~n_paths:model.Tomo.Model.n_paths
  in
  for i = 0 to window - 1 do
    Tomo.Observations.set_interval_statuses obs ~interval:i
      ~good:(tick t (total - window + i))
  done;
  let result, engine = Tomo.Correlation_complete.compute model obs in
  { Engine.tick = total; result; engine }

(* Fig. 4's error: mean |truth - estimate| over the potentially
   congested links. *)
let mae truth (r : Tomo.Pc_result.t) =
  match Tomo.Pc_result.potentially_congested r with
  | [] -> 0.0
  | over ->
      Tomo.Metrics.mean_abs_error ~truth ~estimate:r.Tomo.Pc_result.marginals
        ~over

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  mutable metrics : (string * float) list;  (* reverse insertion order *)
  mutable attempted : int;
  mutable failed : int;
  mutable gates_ok : bool;
  mutable slowdown : float;
      (* timed wall time over its rescaled value, see [Cal] *)
}

let add o name v = o.metrics <- (name, v) :: o.metrics

let gate o ~workload what ok =
  if not ok then begin
    o.gates_ok <- false;
    Printf.eprintf "FAILED %s: %s\n%!" workload what
  end

let end_to_end_units =
  [
    ("ticks_per_s", "1/s");
    ("tick_p50_ms", "ms");
    ("tick_p90_ms", "ms");
    ("setup_s", "s");
    ("mae", "prob");
    ("heap_mb", "MB");
    ("failed_ratio", "ratio");
  ]

let per_layer_units =
  [
    ("window.push_us", "us");
    ("window.always_good_us", "us");
    ("algorithm1.select_ms", "ms");
    ("algorithm1.calls", "count");
    ("algorithm1.share", "ratio");
    ("prob_engine.solve_ms", "ms");
    ("prob_engine.share", "ratio");
    ("cgls.iters_per_solve", "count");
    ("extract.ms", "ms");
    ("extract.share", "ratio");
    ("extract.corr_sets", "count");
    ("engine.glue_share", "ratio");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

(* Layers only the fan-in path runs. *)
let fanin_layer_units =
  [
    ("frame.decode_us_per_tick", "us");
    ("record.parse_us_per_tick", "us");
    ("snapshot.save_ms", "ms");
    ("snapshot.bytes", "count");
    ("report.render_ms", "ms");
    ("hub.parallel_efficiency", "ratio");
  ]

let all_units = end_to_end_units @ per_layer_units @ fanin_layer_units

let expected_names ~fanin ~traced =
  List.map fst end_to_end_units
  @ (if traced then List.map fst per_layer_units else [])
  @ if traced && fanin then List.map fst fanin_layer_units else []

(* [lat_ms] holds every tick's rescaled latency; a run has thousands, so
   far more than ten lie beyond p90. *)
let add_timing o ~ticks_per_s ~lat_ms =
  add o "ticks_per_s" ticks_per_s;
  add o "tick_p50_ms" (Stats.quantile lat_ms 0.5);
  add o "tick_p90_ms" (Stats.quantile lat_ms 0.9)

(* Memory is the major heap's mean size over a fixed amount of work, the
   same in every run, sampled with [heap_words] as it runs.  Its
   peak ([top_heap_words]) is set by the single largest transient
   allocation and grows with the ticks [--seconds] allows; it spread
   3-14% over ten seeds, the mean 2-5%. *)
let heap_words () = float_of_int (Gc.quick_stat ()).Gc.heap_words

let add_heap o ~mean_words =
  add o "heap_mb" (mean_words *. float_of_int (Sys.word_size / 8) /. 1048576.0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A preallocated in-memory span buffer: recording a span is a few
   array stores and two clock reads, and nothing is written until the
   run ends. *)
module Spans = struct
  type t = {
    name : string array;
    tick : int array;
    parent : int array;
    start_ns : int array;
    end_ns : int array;
    mutable len : int;
    mutable current : int;  (* innermost open span, -1 for none *)
  }

  let create capacity =
    {
      name = Array.make capacity "";
      tick = Array.make capacity 0;
      parent = Array.make capacity (-1);
      start_ns = Array.make capacity 0;
      end_ns = Array.make capacity 0;
      len = 0;
      current = -1;
    }

  let enter t name tick =
    let i = t.len in
    if i = Array.length t.name then failwith "span buffer full";
    t.name.(i) <- name;
    t.tick.(i) <- tick;
    t.parent.(i) <- t.current;
    t.len <- i + 1;
    t.current <- i;
    t.start_ns.(i) <- now_ns ();
    i

  let leave t i =
    t.end_ns.(i) <- now_ns ();
    t.current <- t.parent.(i)

  let span t name tick f =
    let i = enter t name tick in
    match f () with
    | v ->
        leave t i;
        v
    | exception e ->
        leave t i;
        raise e

  let duration t i = t.end_ns.(i) - t.start_ns.(i)

  (* Durations, in ns, of the spans called [name] on ticks [>= from_tick]. *)
  let durations ?(from_tick = min_int) t name =
    let acc = ref [] in
    for i = t.len - 1 downto 0 do
      if t.name.(i) = name && t.tick.(i) >= from_tick then
        acc := float_of_int (duration t i) :: !acc
    done;
    Array.of_list !acc

  (* A span's duration minus the time its direct children cover. *)
  let self_times t =
    let self = Array.init t.len (duration t) in
    for i = 0 to t.len - 1 do
      let p = t.parent.(i) in
      if p >= 0 then self.(p) <- self.(p) - duration t i
    done;
    self

  let write_jsonl t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        for i = 0 to t.len - 1 do
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"tick\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
            i t.name.(i) t.tick.(i) t.parent.(i) t.start_ns.(i) t.end_ns.(i)
        done)
end

(* ------------------------------------------------------------------ *)
(* The decomposed tick                                                 *)
(* ------------------------------------------------------------------ *)

(* [Engine.ingest] replayed through the layers' public functions, in the
   same order and with the same cached state, so the estimates (and the
   rendered report) are bit-identical to Engine's.  The count
   bookkeeping mirrors Engine's private helpers. *)
module Decomposed = struct
  type selection = {
    selection : Tomo.Algorithm1.selection;
    row_masks : Bitset.t array;
    counts : int array;
    always_good : Bitset.t;
  }

  type t = {
    model : Tomo.Model.t;
    window : Window.t;
    mutable sel : selection option;
  }

  let create model ~window =
    {
      model;
      window = Window.create ~capacity:window ~n_paths:model.Tomo.Model.n_paths;
      sel = None;
    }

  (* Engine's per-row all-good counts for a fresh selection. *)
  let with_counts t selection ~always =
    let n_paths = t.model.Tomo.Model.n_paths in
    let row_masks =
      Array.map
        (fun r ->
          let b = Bitset.create n_paths in
          Array.iter (Bitset.set b) r.Tomo.Eqn.paths;
          b)
        selection.Tomo.Algorithm1.rows
    in
    let counts = Array.make (Array.length row_masks) 0 in
    Window.iter_columns
      (fun col ->
        Array.iteri
          (fun i mask -> if Bitset.subset mask col then counts.(i) <- counts.(i) + 1)
          row_masks)
      t.window;
    { selection; row_masks; counts; always_good = always }

  let update_counts s ~evicted ~fresh =
    Array.iteri
      (fun i mask ->
        let was = Bitset.subset mask evicted and now = Bitset.subset mask fresh in
        if was <> now then s.counts.(i) <- (s.counts.(i) + if now then 1 else -1))
      s.row_masks

  (* The program's CGLS counters only count while metrics are enabled;
     enabling them for the solve alone keeps the rest of the tick
     untouched. *)
  let solve s obs =
    Obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled false)
      (fun () ->
        Tomo.Prob_engine.solve_with_counts s.selection obs ~counts:s.counts)

  let extract pool model s engine =
    let n_links = model.Tomo.Model.n_links in
    let marginals = Array.make n_links 0.0 in
    let identifiable = Array.make n_links true in
    let per_set =
      Pool.parallel_map ~pool
        (fun c ->
          let links = Tomo.Model.corr_set_links model c in
          ( links,
            Array.map
              (fun e ->
                ( Tomo.Prob_engine.link_marginal engine e,
                  Tomo.Prob_engine.link_identifiable engine e ))
              links ))
        (Array.init (Tomo.Model.n_corr_sets model) Fun.id)
    in
    Array.iter
      (fun (links, cells) ->
        Array.iteri
          (fun i e ->
            let m, ident = cells.(i) in
            marginals.(e) <- m;
            identifiable.(e) <- ident)
          links)
      per_set;
    let sel = s.selection in
    {
      Tomo.Pc_result.marginals;
      identifiable;
      effective = sel.Tomo.Algorithm1.effective;
      n_vars = Tomo.Eqn.n_vars sel.Tomo.Algorithm1.registry;
      n_rows = Array.length sel.Tomo.Algorithm1.rows;
    }

  let ingest spans pool t ~tick good =
    let root = Spans.enter spans "engine.tick" tick in
    let evicted =
      Spans.span spans "window.push" tick (fun () -> Window.push t.window good)
    in
    let est =
      if not (Window.is_full t.window) then None
      else begin
        let always =
          Spans.span spans "window.always_good" tick (fun () ->
              Window.always_good_paths t.window)
        in
        let s =
          match (t.sel, evicted) with
          | Some s, Some evicted when Bitset.equal s.always_good always ->
              update_counts s ~evicted ~fresh:good;
              s
          | _ ->
              let selection =
                Spans.span spans "algorithm1.select" tick (fun () ->
                    Tomo.Algorithm1.select t.model (Window.observations t.window))
              in
              let s = with_counts t selection ~always in
              t.sel <- Some s;
              s
        in
        let obs = Window.observations t.window in
        let engine =
          Spans.span spans "prob_engine.solve" tick (fun () -> solve s obs)
        in
        let result =
          Spans.span spans "extract" tick (fun () ->
              extract pool t.model s engine)
        in
        Some { Engine.tick = Window.ticks t.window; result; engine }
      end
    in
    Spans.leave spans root;
    est
end

(* The program's own CGLS counters (by name, so the same cells). *)
let c_cgls_iterations = Obs.Metrics.counter "cgls_iterations"
let c_cgls_solves = Obs.Metrics.counter "cgls_solves"

let cgls_counts () =
  ( Obs.Metrics.counter_value c_cgls_iterations,
    Obs.Metrics.counter_value c_cgls_solves )

(* Per-layer numbers from the spans of ticks [>= from_tick], taken right
   after those ticks ran; [cgls0] is [cgls_counts ()] from before them.
   [plain_tick_ns] holds a plain [Engine.ingest] of each of those ticks,
   timed alternately with its traced twin so that load from outside the
   process hits both sides alike. *)
let layer_metrics o spans ~from_tick ~plain_tick_ns ~cgls0 ~corr_sets =
  let self = Spans.self_times spans in
  let total f pred =
    let s = ref 0 in
    for i = 0 to spans.Spans.len - 1 do
      if spans.Spans.tick.(i) >= from_tick && pred i then s := !s + f i
    done;
    float_of_int !s
  in
  let named name i = spans.Spans.name.(i) = name in
  let p50 ?from_tick name =
    match Spans.durations ?from_tick spans name with
    | [||] -> 0.0
    | xs -> Stats.median xs
  in
  let ticks = Spans.durations ~from_tick spans "engine.tick" in
  let tick_ns = Array.fold_left ( +. ) 0.0 ticks in
  let share name = total (fun i -> self.(i)) (named name) /. tick_ns in
  let plain = Array.map float_of_int plain_tick_ns in
  add o "window.push_us" (p50 ~from_tick "window.push" /. 1e3);
  add o "window.always_good_us" (p50 ~from_tick "window.always_good" /. 1e3);
  (* Algorithm 1 over the whole traced run, so the first estimate's
     selection counts too. *)
  add o "algorithm1.select_ms" (p50 "algorithm1.select" /. 1e6);
  add o "algorithm1.calls"
    (float_of_int (Array.length (Spans.durations spans "algorithm1.select")));
  add o "algorithm1.share" (share "algorithm1.select");
  add o "prob_engine.solve_ms" (p50 ~from_tick "prob_engine.solve" /. 1e6);
  add o "prob_engine.share" (share "prob_engine.solve");
  (let iters, solves = cgls_counts () in
   let iters = iters - fst cgls0 and solves = solves - snd cgls0 in
   add o "cgls.iters_per_solve"
     (if solves = 0 then 0.0 else float_of_int iters /. float_of_int solves));
  add o "extract.ms" (p50 ~from_tick "extract" /. 1e6);
  add o "extract.share" (share "extract");
  add o "extract.corr_sets" (float_of_int corr_sets);
  add o "engine.glue_share" (share "engine.tick");
  (* The layer spans against the untraced tick: work Engine does that
     the decomposition does not see pulls this below 1. *)
  add o "trace.coverage"
    (total (Spans.duration spans) (fun i ->
         let p = spans.Spans.parent.(i) in
         p >= 0 && named "engine.tick" p)
    /. Array.fold_left ( +. ) 0.0 plain);
  add o "trace.overhead" (Stats.median ticks /. Stats.median plain -. 1.0)

(* ------------------------------------------------------------------ *)
(* Replay workloads                                                    *)
(* ------------------------------------------------------------------ *)

type options = {
  seed : int;
  seconds : float;
  traced : bool;
  trace_file : string option;
  smoke : bool;
}

(* Set-up time in rescaled seconds: the median over repetitions of [f],
   which returns its wall time in ns.  Each repetition starts from a
   compacted heap, so the GC work a set-up pays does not depend on what
   ran before it.  [f ~rep] runs repetition [rep]; the last one, [0], is
   the one whose result is kept. *)
let median_of_reps ~opts f =
  let reps = if opts.smoke then 1 else setup_reps in
  let times = Array.make reps 0.0 and last = ref None in
  for i = 0 to reps - 1 do
    last := None;
    Gc.compact ();
    let before = Cal.time () in
    let ns, r = f ~rep:(reps - 1 - i) in
    times.(i) <- float_of_int ns /. 1e9 *. Cal.factor ~before ~after:(Cal.time ());
    last := Some r
  done;
  (Stats.median times, Option.get !last)

let run_replay o ~name ~opts r =
  let sys = simulate r.topology Scenario.Random in
  let fresh_ticks () = ticks_of sys (Rng.create opts.seed) in
  let ticks = fresh_ticks () in
  let pool = Pool.create ~jobs:1 () in
  (* Set-up: build the model the way [serve] does, fill the window, and
     produce the first estimate (which runs Algorithm 1).  The first
     selection's cost depends on which intervals fill the window, so each
     repetition but the kept one fills it from its own stream: the median
     then spans many fills, not the one the seed happens to start with. *)
  let setup_s, (model, engine) =
    median_of_reps ~opts (fun ~rep ->
        let fill =
          if rep = 0 then ticks
          else ticks_of sys (Rng.split (Rng.create opts.seed) ~label:(string_of_int rep))
        in
        let t0 = now_ns () in
        let model =
          W.model_of_overlay (W.generate_overlay (overlay_spec r.topology))
        in
        let engine = Engine.create ~model ~window:r.window () in
        let first = ref None in
        for i = 0 to r.window - 1 do
          first := Engine.ingest ~pool engine (tick fill i)
        done;
        gate o ~workload:name "no estimate after the window fill" (!first <> None);
        (now_ns () - t0, (model, engine)))
  in
  (* The scored loop: one client, the next tick handed over when the
     previous call returns. *)
  let deadline_ns = int_of_float (opts.seconds *. 1e9) in
  let lat = ref (Array.make 1024 0.0) in
  let n = ref 0 and wall_ns = ref 0 in
  let mae_sum = ref 0.0 and heap_sum = ref 0.0 in
  let report_at_min = ref "" and last = ref None in
  Gc.compact ();
  let before = ref (Cal.time ()) in
  let start = now_ns () in
  while !n < r.scored_min || now_ns () - start < deadline_ns do
    let good = tick ticks (r.window + !n) in
    lat := grown !lat !n;
    let a = now_ns () in
    let est =
      try Engine.ingest ~pool engine good
      with e ->
        o.failed <- o.failed + 1;
        Printf.eprintf "FAILED %s: tick %d raised %s\n%!" name (r.window + !n)
          (Printexc.to_string e);
        None
    in
    let ns = now_ns () - a in
    let after = Cal.time () in
    !lat.(!n) <- float_of_int ns /. 1e6 *. Cal.factor ~before:!before ~after;
    before := after;
    wall_ns := !wall_ns + ns;
    (match est with
    | Some e ->
        if !n < r.scored_min then mae_sum := !mae_sum +. mae sys.truth e.Engine.result;
        if !n = r.scored_min - 1 then
          report_at_min := Engine.report_to_string ~window:r.window e
    | None -> ());
    if !n < r.scored_min then heap_sum := !heap_sum +. heap_words ();
    last := est;
    incr n
  done;
  let n = !n in
  let lat_ms = Array.sub !lat 0 n in
  o.attempted <- o.attempted + n;
  (* Closed loop, one client: throughput is the ticks over the time the
     client waited for them. *)
  let busy_ms = Array.fold_left ( +. ) 0.0 lat_ms in
  o.slowdown <- float_of_int !wall_ns /. 1e6 /. busy_ms;
  add_timing o ~ticks_per_s:(float_of_int n /. (busy_ms /. 1e3)) ~lat_ms;
  add o "setup_s" setup_s;
  add o "mae" (!mae_sum /. float_of_int r.scored_min);
  add_heap o ~mean_words:(!heap_sum /. float_of_int r.scored_min);
  let total = r.window + n in
  let batch = batch_estimate model ticks ~window:r.window ~total in
  gate o ~workload:name "final report differs from batch-report"
    (match !last with
    | Some e ->
        Engine.report_to_string ~window:r.window e
        = Engine.report_to_string ~window:r.window batch
    | None -> false);
  if opts.traced then begin
    let upto = r.window + r.scored_min in
    let spans = Spans.create ((upto * 6) + 64) in
    let ticks = fresh_ticks () in
    let plain = Engine.create ~model ~window:r.window () in
    let d = Decomposed.create model ~window:r.window in
    let plain_ns = Array.make r.scored_min 0 in
    let last = ref None and cgls0 = ref (0, 0) in
    for i = 0 to upto - 1 do
      if i = r.window then begin
        Gc.compact ();
        cgls0 := cgls_counts ()
      end;
      let good = tick ticks i in
      let a = now_ns () in
      ignore (Engine.ingest ~pool plain good);
      if i >= r.window then plain_ns.(i - r.window) <- now_ns () - a;
      last := Decomposed.ingest spans pool d ~tick:i good
    done;
    gate o ~workload:name "traced report differs from the plain run's"
      (match !last with
      | Some e -> Engine.report_to_string ~window:r.window e = !report_at_min
      | None -> false);
    layer_metrics o spans ~from_tick:r.window ~plain_tick_ns:plain_ns
      ~cgls0:!cgls0 ~corr_sets:(Tomo.Model.n_corr_sets model);
    Option.iter (Spans.write_jsonl spans) opts.trace_file
  end;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Fan-in workload                                                     *)
(* ------------------------------------------------------------------ *)

type peer = {
  pname : string;
  sys : system;
  p_ticks : ticks;
  wire : string;  (* the framed trace the peer sends *)
  reference : string;  (* batch-report over the peer's last window *)
  ref_mae : float;  (* mean over the estimates at each window's end *)
}

let make_peer f ~seed (pname, kind) =
  let sys = simulate W.Brite kind in
  let t = ticks_of sys (Rng.split (Rng.create seed) ~label:pname) in
  let n_paths = sys.model.Tomo.Model.n_paths in
  let buf = Buffer.create (f.ticks_per_peer * (n_paths + 16)) in
  Frame.encode_into buf ("peer " ^ pname);
  Frame.encode_into buf "tomo-trace v1";
  Frame.encode_into buf (Printf.sprintf "paths %d" n_paths);
  let bits = Bytes.create n_paths in
  for i = 0 to f.ticks_per_peer - 1 do
    Bytes.fill bits 0 n_paths '0';
    Bitset.iter (fun p -> Bytes.set bits p '1') (tick t i);
    Frame.encode_into buf (Printf.sprintf "tick %d %s" i (Bytes.to_string bits))
  done;
  (* The hub only shows its final estimate; the engine's estimates at
     earlier window ends are the batch estimates over the same ticks, and
     averaging over all of them keeps [mae] from resting on one window. *)
  let ests =
    List.init (f.ticks_per_peer / f.f_window) (fun k ->
        batch_estimate sys.model t ~window:f.f_window
          ~total:(f.ticks_per_peer - (k * f.f_window)))
  in
  {
    pname;
    sys;
    p_ticks = t;
    wire = Buffer.contents buf;
    reference = Engine.report_to_string ~window:f.f_window (List.hd ests);
    ref_mae =
      Stats.mean
        (Array.of_list (List.map (fun e -> mae sys.truth e.Engine.result) ests));
  }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* Engine's own [stream.tick] spans are the only view of per-tick
   latency inside the hub; ticks that produced an estimate are the ones
   with a [stream.solve] child.  Latencies in ms, in start order. *)
let estimating_tick_ms roots =
  let acc = ref [] in
  let rec visit (s : Obs.Trace.span) =
    if
      s.Obs.Trace.name = "stream.tick"
      && List.exists
           (fun (c : Obs.Trace.span) -> c.Obs.Trace.name = "stream.solve")
           s.Obs.Trace.children
    then acc := (s.Obs.Trace.start_s, s.Obs.Trace.duration_s *. 1e3) :: !acc;
    List.iter visit s.Obs.Trace.children
  in
  List.iter visit roots;
  Array.map snd (Array.of_list (List.sort compare !acc))

(* One hub session: both peers write their whole trace, the hub ingests
   and writes a report per peer.  The session's time runs from the first
   byte written to the last report written, read from the reports'
   modification times so that noticing the end costs nothing. *)
type session = {
  wall_s : float;
  factor : float;
      (* [Cal.factor] from calibrations right before and after the
         session: the hub keeps both cores busy, so none can run during
         it *)
  lat_ms : float array;  (* the estimating ticks' latencies *)
  mean_heap_words : float;  (* sampled at every poll for the end *)
}

let session o ~name f pool model peers dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let hub =
    Hub.create ~pool ~policy:Hub.Block ~snapshot_dir:dir ~report_dir:dir
      ~snapshot_every:f.snapshot_every ~model ~window:f.f_window ()
  in
  let clients =
    List.map
      (fun p ->
        let server, client = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Hub.attach hub server;
        (p, client))
      peers
  in
  let runner = Thread.create Hub.run hub in
  Gc.compact ();
  ignore (Obs.Trace.take_roots ());
  Obs.Trace.set_enabled true;
  let n_peers = List.length peers in
  let before = Cal.median_time () in
  let start = Unix.gettimeofday () in
  let writers =
    List.map
      (fun (p, fd) ->
        Thread.create
          (fun () ->
            try
              write_all fd p.wire;
              Unix.shutdown fd Unix.SHUTDOWN_SEND
            with Unix.Unix_error _ -> ())
          ())
      clients
  in
  let finished () =
    let s = Hub.stats hub in
    s.Hub.reports_written >= n_peers || s.Hub.peers_dropped > 0
  in
  let heap_sum = ref 0.0 and polls = ref 0 in
  while (not (finished ())) && Unix.gettimeofday () -. start < 120.0 do
    Thread.delay 0.05;
    heap_sum := !heap_sum +. heap_words ();
    incr polls
  done;
  Hub.request_stop hub;
  Thread.join runner;
  List.iter Thread.join writers;
  List.iter (fun (_, fd) -> Unix.close fd) clients;
  Obs.Trace.set_enabled false;
  let factor = Cal.factor ~before ~after:(Cal.median_time ()) in
  let lat_ms = estimating_tick_ms (Obs.Trace.take_roots ()) in
  gate o ~workload:name "no estimating tick spans (stream.tick) recorded"
    (lat_ms <> [||]);
  let stats = Hub.stats hub in
  gate o ~workload:name "a peer was dropped" (stats.Hub.peers_dropped = 0);
  gate o ~workload:name "hub did not write both reports"
    (stats.Hub.reports_written = n_peers);
  let last_report = ref start in
  List.iter
    (fun p ->
      o.attempted <- o.attempted + f.ticks_per_peer;
      let path = Filename.concat dir (p.pname ^ ".report") in
      if not (Sys.file_exists path) then o.failed <- o.failed + f.ticks_per_peer
      else begin
        last_report := Float.max !last_report (Unix.stat path).Unix.st_mtime;
        gate o ~workload:name
          (p.pname ^ ".report differs from the replay report")
          (In_channel.with_open_bin path In_channel.input_all = p.reference)
      end)
    peers;
  {
    wall_s = !last_report -. start;
    factor;
    lat_ms;
    mean_heap_words =
      (if !polls = 0 then heap_words () else !heap_sum /. float_of_int !polls);
  }

(* One peer's stream the way a reader thread and the drain loop handle
   it, but serially and through the decomposed tick: frame decode in
   64 KiB reads, record parse, ingest, snapshot cadence, final snapshot
   and report.  Each tick also goes through a plain Engine first, timed
   into [plain_ns].  Returns the traced and the plain final report and
   the final snapshot's size. *)
let traced_peer spans pool f model p ~tick_base ~dir ~plain_ns =
  let d = Decomposed.create model ~window:f.f_window in
  let plain = Engine.create ~model ~window:f.f_window () in
  let dec = Frame.create () in
  let rcd = Record.create ~origin:("peer:" ^ p.pname) () in
  let wire = Bytes.unsafe_of_string p.wire in
  let snap_path = Filename.concat dir (p.pname ^ ".snap") in
  let local = ref 0 and last = ref None and last_plain = ref None in
  let hello = ref true in
  let snapshot () =
    let tick = tick_base + !local in
    let snap =
      Spans.span spans "snapshot.capture" tick (fun () ->
          Snapshot.capture d.Decomposed.window)
    in
    Spans.span spans "snapshot.save" tick (fun () -> Snapshot.save snap_path snap)
  in
  let ingest good =
    let a = now_ns () in
    (match Engine.ingest ~pool plain good with
    | Some e -> last_plain := Some e
    | None -> ());
    plain_ns := (now_ns () - a) :: !plain_ns;
    (match Decomposed.ingest spans pool d ~tick:(tick_base + !local) good with
    | Some e -> last := Some e
    | None -> ());
    incr local;
    if Window.ticks d.Decomposed.window mod f.snapshot_every = 0 then snapshot ()
  in
  let off = ref 0 in
  while !off < Bytes.length wire do
    let len = min 65536 (Bytes.length wire - !off) in
    Spans.span spans "frame.decode" (tick_base + !local) (fun () ->
        Frame.feed dec wire ~off:!off ~len);
    off := !off + len;
    let rec drain () =
      match Frame.next dec with
      | None -> ()
      | Some _ when !hello ->
          hello := false;
          drain ()
      | Some payload ->
          (match
             Spans.span spans "record.parse" (tick_base + !local) (fun () ->
                 Record.feed rcd payload)
           with
          | Record.Tick good -> ingest good
          | Record.Blank | Record.Header | Record.Paths _ -> ());
          drain ()
    in
    drain ()
  done;
  snapshot ();
  let render e = Engine.report_to_string ~window:f.f_window e in
  ( Option.map
      (fun e ->
        Spans.span spans "report.render" (tick_base + !local) (fun () -> render e))
      !last,
    Option.map render !last_plain,
    (Unix.stat snap_path).Unix.st_size )

let run_fanin o ~name ~opts ~dir f =
  let setup_s, model =
    median_of_reps ~opts (fun ~rep:_ ->
        let t0 = now_ns () in
        let model =
          W.model_of_overlay (W.generate_overlay (overlay_spec W.Brite))
        in
        ignore
          (Hub.create ~policy:Hub.Block ~snapshot_dir:dir ~report_dir:dir
             ~snapshot_every:f.snapshot_every ~model ~window:f.f_window ());
        (now_ns () - t0, model))
  in
  (* Made after the set-up: collections forced back to back leave the
     collector ahead of its schedule, and the hub sessions' heap grew by
     about 1 MB per forced collection until allocation caught up. *)
  let peers =
    List.map (make_peer f ~seed:opts.seed)
      [ ("random", Scenario.Random); ("noindep", Scenario.No_independence) ]
  in
  (* Created only now: an idle worker domain still takes part in every
     stop-the-world collection and would add noise to the set-up. *)
  let pool = Pool.create ~jobs:f.jobs () in
  let sessions_dir = Filename.concat dir "hub" in
  let deadline_ns = int_of_float (opts.seconds *. 1e9) in
  let start = now_ns () in
  let rec loop acc =
    let s = session o ~name f pool model peers sessions_dir in
    if acc = [] then add_heap o ~mean_words:s.mean_heap_words;
    let acc = s :: acc in
    if now_ns () - start < deadline_ns then loop acc else acc
  in
  let sessions = loop [] in
  rm_rf sessions_dir;
  let n_ticks = float_of_int (f.ticks_per_peer * List.length peers) in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 sessions in
  let busy_s = sum (fun s -> s.wall_s *. s.factor) in
  o.slowdown <- sum (fun s -> s.wall_s) /. busy_s;
  add_timing o
    ~ticks_per_s:(n_ticks *. float_of_int (List.length sessions) /. busy_s)
    ~lat_ms:
      (Array.concat
         (List.rev_map (fun s -> Array.map (fun l -> l *. s.factor) s.lat_ms) sessions));
  add o "setup_s" setup_s;
  add o "mae" (Stats.mean (Array.of_list (List.map (fun p -> p.ref_mae) peers)));
  if opts.traced then begin
    (* Each peer once more, serially on a one-job pool: the traced
       decomposition next to a plain Engine, window fill included. *)
    let pool1 = Pool.create ~jobs:1 () in
    let spans = Spans.create ((f.ticks_per_peer * List.length peers * 12) + 256) in
    let traced_dir = Filename.concat dir "traced" in
    Unix.mkdir traced_dir 0o755;
    let plain_ns = ref [] and snapshot_bytes = ref 0 in
    Gc.compact ();
    let cgls0 = cgls_counts () in
    List.iteri
      (fun k p ->
        let report, plain_report, bytes =
          traced_peer spans pool1 f model p ~tick_base:(k * f.ticks_per_peer)
            ~dir:traced_dir ~plain_ns
        in
        snapshot_bytes := bytes;
        gate o ~workload:name
          (p.pname ^ ": replay Engine report differs from batch-report")
          (plain_report = Some p.reference);
        gate o ~workload:name
          (p.pname ^ ": traced report differs from the replay report")
          (report = Some p.reference))
      peers;
    rm_rf traced_dir;
    layer_metrics o spans ~from_tick:0
      ~plain_tick_ns:(Array.of_list !plain_ns)
      ~cgls0 ~corr_sets:(Tomo.Model.n_corr_sets model);
    let total name = Array.fold_left ( +. ) 0.0 (Spans.durations spans name) in
    let p50 name = Stats.median (Spans.durations spans name) in
    (* The per-peer serial work: every root span (ticks, decode, parse,
       snapshots, render). *)
    let serial_ns = ref 0 in
    for i = 0 to spans.Spans.len - 1 do
      if spans.Spans.parent.(i) < 0 then
        serial_ns := !serial_ns + Spans.duration spans i
    done;
    add o "frame.decode_us_per_tick" (total "frame.decode" /. 1e3 /. n_ticks);
    add o "record.parse_us_per_tick" (total "record.parse" /. 1e3 /. n_ticks);
    add o "snapshot.save_ms" (p50 "snapshot.save" /. 1e6);
    add o "snapshot.bytes" (float_of_int !snapshot_bytes);
    add o "report.render_ms" (p50 "report.render" /. 1e6);
    add o "hub.parallel_efficiency"
      (float_of_int !serial_ns /. 1e9
      /. (Stats.median (Array.of_list (List.map (fun s -> s.wall_s) sessions))
         *. float_of_int f.jobs));
    Option.iter (Spans.write_jsonl spans) opts.trace_file;
    Pool.shutdown pool1
  end;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let unit_of name = List.assoc name all_units

let result_json ~name ~opts ~jobs o ~correct metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%s,\"traced\":%b,\
     \"host\":{\"nproc\":%d,\"jobs\":%d,\"seed\":%d,\"ocaml\":\"%s\",\
     \"word_size\":%d,\"slowdown\":%s},\"correct\":%b,\"attempted\":%d,\
     \"failed\":%d,\"metrics\":{"
    name opts.seed (json_number opts.seconds) opts.traced
    (Domain.recommended_domain_count ())
    jobs opts.seed Sys.ocaml_version Sys.word_size (json_number o.slowdown)
    correct o.attempted o.failed;
  List.iteri
    (fun i (m, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m (json_number v)
        (unit_of m))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let run_one ~name ~opts ~json =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Nothing else may own worker domains while a run is timed; input
     simulation then runs sequentially too. *)
  Pool.set_default_jobs 1;
  let shape = shape_of ~smoke:opts.smoke name in
  let nproc = Domain.recommended_domain_count () in
  let jobs = match shape with Replay _ -> 1 | Fanin f -> f.jobs in
  if jobs > nproc && not opts.smoke then begin
    (* Two jobs on one core would read as a slowdown, not a measurement. *)
    Printf.printf "%s: skipped (nproc=%d < %d)\n" name nproc jobs;
    0
  end
  else begin
    let o =
      { metrics = []; attempted = 0; failed = 0; gates_ok = true; slowdown = 1.0 }
    in
    let tmp = Filename.concat ".e2e-tmp" (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
    (match shape with
    | Replay r -> run_replay o ~name ~opts r
    | Fanin f ->
        if not (Sys.file_exists ".e2e-tmp") then Unix.mkdir ".e2e-tmp" 0o755;
        Unix.mkdir tmp 0o755;
        Fun.protect
          ~finally:(fun () ->
            rm_rf tmp;
            try Sys.rmdir ".e2e-tmp" with Sys_error _ -> ())
          (fun () -> run_fanin o ~name ~opts ~dir:tmp f));
    let expected =
      expected_names ~fanin:(match shape with Fanin _ -> true | Replay _ -> false)
        ~traced:opts.traced
    in
    let value m =
      match List.assoc_opt m o.metrics with
      | Some v when Float.is_finite v -> Some v
      | _ -> None
    in
    List.iter
      (fun m ->
        if m <> "failed_ratio" && value m = None then
          gate o ~workload:name (Printf.sprintf "metric %s missing or not finite" m) false)
      expected;
    add o "failed_ratio"
      (if not o.gates_ok then 1.0
       else float_of_int o.failed /. float_of_int (max 1 o.attempted));
    let correct = o.gates_ok && o.failed = 0 in
    let metrics =
      List.filter_map (fun m -> Option.map (fun v -> (m, v)) (value m)) expected
    in
    List.iter
      (fun (m, v) -> Printf.printf "%s %.6g %s\n" m v (unit_of m))
      metrics;
    let line = result_json ~name ~opts ~jobs o ~correct metrics in
    print_endline line;
    Option.iter
      (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc (line ^ "\n")))
      json;
    if correct then 0 else 1
  end

(* [--workload all] runs one process per workload, so each reports its
   own heap. *)
let run_all ~argv_rest ~trace_file ~json =
  let suffixed path w =
    Filename.remove_extension path ^ "." ^ w ^ Filename.extension path
  in
  List.fold_left
    (fun worst w ->
      let args =
        Array.of_list
          ((Sys.executable_name :: "--workload" :: w :: argv_rest)
          @ (match trace_file with Some p -> [ "--trace"; suffixed p w ] | None -> [])
          @ match json with Some p -> [ "--json"; suffixed p w ] | None -> [])
      in
      let pid =
        Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
          Unix.stderr
      in
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1
      in
      max worst code)
    0 workload_names

let usage =
  "e2e.exe --workload steady|churn|sparse|fanin|all --seed N [--seconds S] \
   [--trace FILE] [--json FILE] [--smoke]"

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 15.0 in
  let trace_file = ref None and json = ref None and smoke = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 15)");
      ("--trace", Arg.String (fun s -> trace_file := Some s),
       "FILE also run the traced replay; write its spans here as JSONL");
      ("--json", Arg.String (fun s -> json := Some s), "FILE write the result object here");
      ("--smoke", Arg.Set smoke,
       " every workload traced, a few ticks each, no time floor: checks every \
        gate and metric");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let smoke = !smoke in
  let workload = if smoke && !workload = "" then "all" else !workload in
  let opts =
    {
      seed = !seed;
      seconds = (if smoke then 0.0 else !seconds);
      traced = smoke || !trace_file <> None;
      trace_file = !trace_file;
      smoke;
    }
  in
  let code =
    if workload = "all" then
      run_all
        ~argv_rest:
          ([ "--seed"; string_of_int opts.seed; "--seconds"; Printf.sprintf "%g" !seconds ]
          @ if smoke then [ "--smoke" ] else [])
        ~trace_file:!trace_file ~json:!json
    else if List.mem workload workload_names then
      run_one ~name:workload ~opts ~json:!json
    else begin
      prerr_endline usage;
      2
    end
  in
  exit code
