(* Command-line entry point: regenerate any table or figure of the
   paper's evaluation, plus the ablation/sensitivity experiments.

     tomo_cli fig3    --scale medium --seed 1 --seeds 3
     tomo_cli fig4a / fig4b / fig4c / fig4d / table2 / all
     tomo_cli ablation / probes / convergence
     tomo_cli summary

   Scale "paper" matches §3.2 (1000/2000 links, 1500 paths, 1000
   intervals) and takes tens of minutes; "medium" (default) preserves the
   qualitative shape in about a minute. `--seeds N` averages figures over
   N independently generated topologies (seed, seed+1, ...). *)

open Cmdliner

let ppf = Format.std_formatter

let scale_arg =
  let parse s =
    match Tomo_experiments.Workload.scale_of_string s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  let print ppf s =
    Format.fprintf ppf "%s" (Tomo_experiments.Workload.scale_to_string s)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tomo_experiments.Workload.Medium
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Experiment scale: small, medium or paper.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for the experiment.")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:
          "Average figures over N topologies (seeds SEED..SEED+N-1). \
           Applies to fig3, fig4a, fig4b and all.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:
          "Also write the figure's data as CSV files into $(docv) \
           (created if missing). Applies to fig3, fig4a-d and all.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record spans and metrics while the command runs, then print \
           the span tree and a metrics table (same as TOMO_TRACE=1).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run experiment cells — and the per-interval probe \
           simulation inside each cell, including gen-trace — on \
           $(docv) domains (default: TOMO_JOBS, or one less than the \
           available cores). $(docv)=1 forces sequential execution; \
           results are bit-identical either way.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSON snapshot of every counter, gauge and histogram \
           to $(docv) (\"-\" for stdout; same as TOMO_METRICS_OUT). \
           Written atomically, and periodically with --flush-every.")

let events_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events-out" ] ~docv:"FILE"
        ~doc:
          "Append lifecycle events (source open/EOF, re-selection, \
           snapshot written/restored, pool resize) as JSON lines to \
           $(docv) (\"-\" for stderr; same as TOMO_EVENTS_OUT).")

(* Configure the observability sinks from the CLI flags (falling back to
   the TOMO_TRACE / TOMO_METRICS_OUT / TOMO_EVENTS_OUT environment) and
   flush them once the command is done.  Events are configured before
   the pool resize so the startup [pool_resize] lands in the log. *)
let with_obs jobs trace metrics_out events_out f =
  let events_out =
    match events_out with
    | Some p -> Some p
    | None -> (
        match Sys.getenv_opt "TOMO_EVENTS_OUT" with
        | None | Some "" -> None
        | some -> some)
  in
  Tomo_obs.Events.configure events_out;
  Option.iter Tomo_par.Pool.set_default_jobs jobs;
  Tomo_obs.Sink.init
    ?trace:(if trace then Some Tomo_obs.Sink.Trace_human else None)
    ?metrics_out ();
  f ();
  Tomo_obs.Sink.flush ();
  Tomo_obs.Events.close ()

let ensure_dir = function
  | None -> ()
  | Some dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let csv_path dir name = Filename.concat dir name

let seed_list seed n = List.init (max 1 n) (fun i -> seed + i)

let announce name scale seed seeds =
  Format.fprintf ppf "Running %s (scale=%s, seed=%d%s)...@." name
    (Tomo_experiments.Workload.scale_to_string scale)
    seed
    (if seeds > 1 then Printf.sprintf ", %d seeds averaged" seeds else "")

let run_fig3 scale seed seeds csv =
  announce "Figure 3" scale seed seeds;
  let rows =
    Tomo_experiments.Fig3.run_averaged ~scale ~seeds:(seed_list seed seeds)
  in
  Tomo_experiments.Render.fig3 ppf rows;
  ensure_dir csv;
  Option.iter
    (fun dir ->
      Tomo_experiments.Render.fig3_csv (csv_path dir "fig3.csv") rows)
    csv

let run_fig4_mae topology title scale seed seeds csv csv_name =
  announce title scale seed seeds;
  let rows =
    Tomo_experiments.Fig4.run_mae_averaged ~topology ~scale
      ~seeds:(seed_list seed seeds)
  in
  Tomo_experiments.Render.fig4_mae ppf ~title rows;
  ensure_dir csv;
  Option.iter
    (fun dir ->
      Tomo_experiments.Render.fig4_mae_csv (csv_path dir csv_name) rows)
    csv

let fig4a scale seed seeds csv =
  run_fig4_mae Tomo_experiments.Workload.Brite
    "Figure 4(a): mean absolute error of link congestion probability \
     (Brite)"
    scale seed seeds csv "fig4a.csv"

let fig4b scale seed seeds csv =
  run_fig4_mae Tomo_experiments.Workload.Sparse
    "Figure 4(b): mean absolute error of link congestion probability \
     (Sparse)"
    scale seed seeds csv "fig4b.csv"

let run_fig4c scale seed seeds csv =
  announce "Figure 4(c)" scale seed seeds;
  let curves = Tomo_experiments.Fig4.run_cdf ~scale ~seed ~steps:10 in
  Tomo_experiments.Render.fig4_cdf ppf curves;
  ensure_dir csv;
  Option.iter
    (fun dir ->
      Tomo_experiments.Render.fig4_cdf_csv (csv_path dir "fig4c.csv") curves)
    csv

let run_fig4d scale seed seeds csv =
  announce "Figure 4(d)" scale seed seeds;
  let cells = Tomo_experiments.Fig4.run_subsets ~scale ~seed in
  Tomo_experiments.Render.fig4_subsets ppf cells;
  ensure_dir csv;
  Option.iter
    (fun dir ->
      Tomo_experiments.Render.fig4_subsets_csv
        (csv_path dir "fig4d.csv")
        cells)
    csv

let run_ablation scale seed seeds =
  announce "subset-size ablation" scale seed seeds;
  Tomo_experiments.Ablation.render_subset_rows ppf
    (Tomo_experiments.Ablation.subset_size_sweep ~scale ~seed
       ~sizes:[ 1; 2; 3; 4 ])

let run_fallback scale seed seeds =
  announce "fallback-strategy ablation" scale seed seeds;
  Tomo_experiments.Ablation.render_fallback_rows ppf
    (Tomo_experiments.Ablation.fallback_sweep ~scale ~seed)

let run_probes scale seed seeds =
  announce "probing sensitivity" scale seed seeds;
  Tomo_experiments.Ablation.render_probe_rows ppf
    (Tomo_experiments.Ablation.probe_sweep ~scale ~seed
       ~budgets:[ 1600; 400; 100; 25 ])

let run_convergence scale seed seeds =
  announce "estimation convergence" scale seed seeds;
  Tomo_experiments.Ablation.render_interval_rows ppf
    (Tomo_experiments.Ablation.interval_sweep ~scale ~seed
       ~lengths:[ 50; 100; 200; 400; 800; 1600 ])

let run_report scale seed _seeds =
  Format.fprintf ppf
    "Monitoring report: peers of the source ISP (scale=%s, seed=%d)@."
    (Tomo_experiments.Workload.scale_to_string scale)
    seed;
  let w =
    Tomo_experiments.Workload.prepare
      (Tomo_experiments.Workload.spec ~scale ~seed
         Tomo_experiments.Workload.Brite Tomo_netsim.Scenario.Random)
  in
  let _, engine =
    Tomo.Correlation_complete.compute w.Tomo_experiments.Workload.model
      w.Tomo_experiments.Workload.obs
  in
  let peers =
    Tomo_experiments.Peer_report.build
      ~model:w.Tomo_experiments.Workload.model ~engine
      ~overlay:w.Tomo_experiments.Workload.overlay ~resamples:30
      ~rng:(Tomo_util.Rng.create (seed + 1))
  in
  Tomo_experiments.Peer_report.render ppf ~top:15 peers

let run_summary scale seed _seeds =
  List.iter
    (fun topology ->
      let spec =
        Tomo_experiments.Workload.spec ~scale ~seed topology
          Tomo_netsim.Scenario.Random
      in
      let w = Tomo_experiments.Workload.prepare spec in
      Format.fprintf ppf "@.%s topology:@.%a@."
        (Tomo_experiments.Workload.topology_to_string topology)
        Tomo_topology.Overlay.pp_summary w.Tomo_experiments.Workload.overlay)
    [ Tomo_experiments.Workload.Brite; Tomo_experiments.Workload.Sparse ]

let run_identifiability scale seed _seeds =
  List.iter
    (fun topology ->
      let spec =
        Tomo_experiments.Workload.spec ~scale ~seed topology
          Tomo_netsim.Scenario.Random
      in
      let model =
        Tomo_experiments.Workload.model_of_overlay
          (Tomo_experiments.Workload.generate_overlay spec)
      in
      let effective = Tomo.Identifiability.covered_links model in
      let t = Tomo.Identifiability.analyze model ~effective in
      Format.fprintf ppf "@.%s topology (scale=%s, seed=%d):@.%a@."
        (Tomo_experiments.Workload.topology_to_string topology)
        (Tomo_experiments.Workload.scale_to_string scale)
        seed Tomo.Identifiability.pp t)
    [ Tomo_experiments.Workload.Brite; Tomo_experiments.Workload.Sparse ]

(* ------------------------------------------------------------------ *)
(* Streaming mode: gen-trace / serve / batch-report                     *)
(* ------------------------------------------------------------------ *)

module W = Tomo_experiments.Workload
module Stream = Tomo_stream

let topology_arg =
  let parse = function
    | "brite" -> Ok W.Brite
    | "sparse" -> Ok W.Sparse
    | s -> Error (`Msg (Printf.sprintf "unknown topology %S (brite|sparse)" s))
  in
  let print ppf t = Format.fprintf ppf "%s" (W.topology_to_string t) in
  Arg.(
    value
    & opt (conv (parse, print)) W.Brite
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Topology family the trace was measured on: brite or sparse. \
           Together with --scale and --seed this deterministically \
           rebuilds the model (link/path incidence, correlation sets).")

let scenario_arg =
  let parse = function
    | "random" -> Ok Tomo_netsim.Scenario.Random
    | "concentrated" -> Ok Tomo_netsim.Scenario.Concentrated
    | "no-independence" -> Ok Tomo_netsim.Scenario.No_independence
    | s ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown scenario %S (random|concentrated|no-independence)" s))
  in
  let print ppf k =
    Format.fprintf ppf "%s" (Tomo_netsim.Scenario.kind_to_string k)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tomo_netsim.Scenario.Random
    & info [ "scenario" ] ~docv:"SCENARIO"
        ~doc:"Congestion scenario for the simulated trace.")

let replay_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Measurement stream to replay: a tomo-trace file (\"-\" for \
           stdin) or an archived tomo-observations file (detected by \
           header).")

let replay_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Measurement stream to replay: a tomo-trace file (\"-\" for \
           stdin) or an archived tomo-observations file (detected by \
           header). Mutually exclusive with --ingest.")

let window_arg =
  let max = Stream.Window.max_capacity in
  let parse s =
    match int_of_string_opt s with
    | Some w when w >= 1 && w <= max -> Ok w
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "expected an interval count in [1, %d], got %S"
               max s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 100
    & info [ "window" ] ~docv:"W"
        ~doc:
          (Printf.sprintf
             "Sliding-window capacity in measurement intervals, 1 to %d \
              (ignored when restoring from a snapshot, which fixes it)."
             max))

let intervals_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "intervals" ] ~docv:"T"
        ~doc:"Trace length in intervals (default: the scale's length).")

let nonstationary_arg =
  Arg.(
    value & flag
    & info [ "nonstationary" ]
        ~doc:"Redraw congestion probabilities every few intervals (§3.2).")

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")

let report_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-out" ] ~docv:"FILE"
        ~doc:
          "Write the final-window estimate as a diffable tomo-report \
           (\"-\" for stdout).")

let snapshot_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-in" ] ~docv:"FILE"
        ~doc:
          "Resume from a snapshot: restores the window bit-identically \
           and fast-forwards the replay past already-ingested ticks.")

let snapshot_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-out" ] ~docv:"FILE"
        ~doc:
          "Write a checksummed snapshot (atomic rename) every \
           --snapshot-every ticks and at shutdown.")

let snapshot_every_arg =
  Arg.(
    value & opt int 10
    & info [ "snapshot-every" ] ~docv:"K"
        ~doc:"Snapshot cadence in ticks (with --snapshot-out).")

let max_ticks_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-ticks" ] ~docv:"K"
        ~doc:
          "Stop after ingesting K batches in this run — a deterministic \
           stand-in for killing the server mid-stream (the final \
           snapshot still captures the stopping point).")

let progress_arg =
  Arg.(
    value & opt int 0
    & info [ "progress" ] ~docv:"N"
        ~doc:"Print a status line every N ticks (0 = quiet).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve live telemetry while the engine runs: Prometheus text \
           metrics at /metrics, health JSON at /healthz, an engine \
           status view at /status. $(docv) is a Unix-socket path, \
           HOST:PORT, or a bare PORT (TCP on 127.0.0.1). Scraping only \
           reads published state — streaming results are bit-identical \
           with or without it.")

let flush_every_arg =
  Arg.(
    value & opt float 0.0
    & info [ "flush-every" ] ~docv:"SECONDS"
        ~doc:
          "Flush the metrics/trace sinks every $(docv) seconds (atomic \
           write + rename) instead of only at exit, so a long run's \
           telemetry files stay current. 0 disables periodic flushing.")

let linger_arg =
  Arg.(
    value & opt float 0.0
    & info [ "linger" ] ~docv:"SECONDS"
        ~doc:
          "With --listen: keep serving the telemetry endpoints for \
           $(docv) seconds after the replay drains, so a final scrape \
           can observe the finished run.")

let ingest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ingest" ] ~docv:"ADDR"
        ~doc:
          "Accept live framed tomo-trace streams (the send-trace wire \
           format) instead of replaying a file: $(docv) is a Unix-socket \
           path, HOST:PORT, or a bare PORT, like --listen. Each \
           connected peer gets its own sliding-window engine; run until \
           SIGINT/SIGTERM (or --max-ticks). Mutually exclusive with \
           --replay.")

let ingest_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "ingest-queue" ] ~docv:"N"
        ~doc:
          "Per-peer bounded queue capacity in ticks: how far a peer's \
           reader may run ahead of its engine before backpressure (see \
           --ingest-policy) kicks in.")

let ingest_policy_arg =
  Arg.(
    value & opt string "block"
    & info [ "ingest-policy" ] ~docv:"POLICY"
        ~doc:
          "What to do when a peer's queue is full: \"block\" parks the \
           reader (the peer's TCP writes eventually stall — ordinary \
           backpressure), \"drop\" disconnects the slow peer to protect \
           the rest.")

let idle_timeout_arg =
  Arg.(
    value & opt float 0.0
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Drop a peer that sends nothing for $(docv) seconds (guards \
           against half-open connections). 0 waits forever.")

let snapshot_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-dir" ] ~docv:"DIR"
        ~doc:
          "With --ingest: write per-peer snapshots to $(docv)/NAME.snap \
           every --snapshot-every ticks and at shutdown; a reconnecting \
           peer of the same name is restored and its re-sent ticks \
           skipped, so a killed daemon resumes bit-identically.")

let report_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-dir" ] ~docv:"DIR"
        ~doc:
          "With --ingest: write each cleanly ended peer's final-window \
           tomo-report to $(docv)/NAME.report — byte-identical to serve \
           --replay of the same trace.")

let to_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "to" ] ~docv:"ADDR"
        ~doc:
          "Daemon ingest address (same syntax as --ingest: Unix-socket \
           path, HOST:PORT, or bare PORT).")

let trace_in_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"tomo-trace v1 file to send (\"-\" for stdin).")

let peer_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "peer" ] ~docv:"NAME"
        ~doc:
          "Announce this peer name ([A-Za-z0-9_.-]) in a hello frame — \
           the daemon keys snapshots and reports by it, so re-sending \
           under the same name resumes after a daemon restart. Unnamed \
           senders get a per-connection name with no cross-restart \
           identity.")

let chunk_arg =
  Arg.(
    value & opt int 65536
    & info [ "chunk" ] ~docv:"BYTES"
        ~doc:"Batch roughly $(docv) bytes of frames per write.")

let best_effort_arg =
  Arg.(
    value & flag
    & info [ "best-effort" ]
        ~doc:
          "Exit 0 even if the daemon hangs up mid-send (it stopped, or \
           dropped this peer) — for harnesses that race a sender \
           against a bounded daemon.")

let check_source_paths source model =
  let sp = Stream.Source.n_paths source
  and mp = model.Tomo.Model.n_paths in
  if sp <> mp then
    failwith
      (Printf.sprintf
         "replay source has %d paths but the model has %d — wrong \
          --topology/--scale/--seed for this trace?"
         sp mp)

let model_for scale seed topology =
  let spec = W.spec ~scale ~seed topology Tomo_netsim.Scenario.Random in
  W.model_of_overlay (W.generate_overlay spec)

let write_report path report =
  match path with
  | None -> ()
  | Some "-" -> print_string report
  | Some p -> Tomo_obs.Sink.write_atomic p report

let summarize (est : Stream.Engine.estimate) ~window =
  let r = est.Stream.Engine.result in
  let n_links = Array.length r.Tomo.Pc_result.marginals in
  let identifiable =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0
      r.Tomo.Pc_result.identifiable
  in
  let congested =
    Array.fold_left (fun a m -> if m > 0.1 then a + 1 else a) 0
      r.Tomo.Pc_result.marginals
  in
  Format.fprintf ppf
    "Final window estimate: tick %d, window %d, %d equations over %d \
     variables; %d/%d links identifiable, %d links with P(congested) > \
     0.1@."
    est.Stream.Engine.tick window r.Tomo.Pc_result.n_rows
    r.Tomo.Pc_result.n_vars identifiable n_links congested

let run_gen_trace scale seed topology scenario nonstationary intervals out =
  let spec =
    W.spec ~scale ~seed ~nonstationary ?t_override:intervals topology
      scenario
  in
  let w = W.prepare spec in
  Tomo_netsim.Trace_io.save out w.W.run;
  Format.fprintf ppf "Wrote %d intervals x %d paths to %s@."
    w.W.run.Tomo_netsim.Run.t_intervals
    (Array.length w.W.run.Tomo_netsim.Run.path_good)
    out

let parse_addr ~flag spec =
  match Tomo_obs.Exporter.listen_of_string spec with
  | Ok l -> l
  | Error e -> failwith (flag ^ ": " ^ e)

(* The telemetry exporter of either serve daemon.  /status is
   {"config":{..,<source>:..,..},<view>:<body ()>}: [source] names the
   stream ("replay" or "ingest") and [view] the daemon's own JSON view
   ("engine" or "hub"). *)
let start_telemetry ~spec ~scale ~seed ~topology ~source:(kind, addr)
    ~window ?health (view, body) =
  let listen = parse_addr ~flag:"--listen" spec in
  (* Scrapes must see live histograms even when no file sink is
     configured. *)
  Tomo_obs.Metrics.set_enabled true;
  (* A daemon accumulates spans forever unless bounded; the periodic
     flusher drains them, the cap is the backstop. *)
  Tomo_obs.Trace.set_max_roots (Some 1024);
  let status () =
    Printf.sprintf
      "{\"config\":{\"scale\":%s,\"seed\":%d,\"topology\":%s,\"%s\":%s,\
       \"window\":%d},\"%s\":%s}"
      (Tomo_obs.Json.quote (W.scale_to_string scale))
      seed
      (Tomo_obs.Json.quote (W.topology_to_string topology))
      kind (Tomo_obs.Json.quote addr) window view (body ())
  in
  let exporter = Tomo_obs.Exporter.start ?health ~status listen in
  Format.fprintf ppf "Telemetry on %s: /metrics /healthz /status@."
    (Tomo_obs.Exporter.listen_to_string listen);
  exporter

(* The replay exporter's callbacks run on its own thread; they read an
   immutable status record republished by the engine thread each tick
   under [lock], never the live engine. *)
type published_status = {
  lock : Mutex.t;
  mutable published : Stream.Engine.status;
  started : float;  (** monotonic, for [uptime_s] *)
}

let start_replay_telemetry ~spec ~scale ~seed ~topology ~replay ~window
    engine =
  let t =
    {
      lock = Mutex.create ();
      published = Stream.Engine.status engine;
      started = Tomo_obs.Clock.now ();
    }
  in
  let read_status () =
    Mutex.lock t.lock;
    let s = t.published in
    Mutex.unlock t.lock;
    s
  in
  let engine_json () =
    Stream.Engine.status_json
      ~uptime_s:(Tomo_obs.Clock.now () -. t.started)
      ?snapshot_age_s:
        (Option.map
           (fun t0 -> Unix.gettimeofday () -. t0)
           (Stream.Snapshot.last_saved_at ()))
      ?last_error:(Tomo_obs.Sink.last_error ())
      (read_status ())
  in
  ( start_telemetry ~spec ~scale ~seed ~topology ~source:("replay", replay)
      ~window ~health:engine_json ("engine", engine_json),
    fun engine ->
      let s = Stream.Engine.status engine in
      Mutex.lock t.lock;
      t.published <- s;
      Mutex.unlock t.lock )

let run_serve_replay scale seed topology replay window snapshot_in
    snapshot_out snapshot_every max_ticks report_out progress listen
    flush_every linger =
  let model = model_for scale seed topology in
  let engine =
    match snapshot_in with
    | Some path ->
        let snap = Stream.Snapshot.load path in
        Format.fprintf ppf
          "Restored snapshot %s: %d ticks ingested, window %d@." path
          snap.Stream.Snapshot.ticks snap.Stream.Snapshot.capacity;
        Stream.Engine.of_snapshot ~model snap
    | None -> Stream.Engine.create ~model ~window ()
  in
  let telemetry =
    Option.map
      (fun spec ->
        start_replay_telemetry ~spec ~scale ~seed ~topology ~replay ~window
          engine)
      listen
  in
  let publish =
    match telemetry with Some (_, publish) -> publish | None -> ignore
  in
  let flusher =
    if flush_every > 0.0 then
      Some (Tomo_obs.Flusher.start ~period_s:flush_every ())
    else None
  in
  let source = Stream.Source.of_replay_file replay in
  check_source_paths source model;
  let already = Stream.Engine.ticks engine in
  if already > 0 then begin
    let skipped = Stream.Source.drop source already in
    if skipped < already then
      failwith
        (Printf.sprintf
           "replay has only %d of the %d intervals the snapshot already \
            ingested — wrong trace for this snapshot?"
           skipped already)
  end;
  let on_tick engine est =
    publish engine;
    if progress > 0 && Stream.Engine.ticks engine mod progress = 0 then
      Format.fprintf ppf "tick %d: %s@."
        (Stream.Engine.ticks engine)
        (match est with
        | None -> "warming up"
        | Some e ->
            Printf.sprintf "%d eqs / %d vars"
              e.Stream.Engine.result.Tomo.Pc_result.n_rows
              e.Stream.Engine.result.Tomo.Pc_result.n_vars)
  in
  let last =
    Stream.Engine.run ?snapshot_out ~snapshot_every ?max_ticks engine source
      ~on_tick
  in
  Stream.Source.close source;
  publish engine;
  (match telemetry with
  | Some _ when linger > 0.0 ->
      Format.fprintf ppf "Replay drained; telemetry lingers %gs@." linger;
      Thread.delay linger
  | _ -> ());
  Option.iter Tomo_obs.Flusher.stop flusher;
  (match telemetry with
  | Some (exporter, _) -> Tomo_obs.Exporter.stop exporter
  | None -> ());
  let cap = Stream.Window.capacity (Stream.Engine.window engine) in
  match
    (match last with Some _ -> last | None -> Stream.Engine.current engine)
  with
  | None ->
      Format.fprintf ppf
        "Stream ended after %d ticks — window (capacity %d) never \
         filled; no estimate.@."
        (Stream.Engine.ticks engine)
        cap
  | Some est ->
      summarize est ~window:cap;
      write_report report_out (Stream.Engine.report_to_string ~window:cap est)

(* ------------------------------------------------------------------ *)
(* Network ingestion: serve --ingest / send-trace                      *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> Filename.dirname dir && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run_serve_ingest scale seed topology ingest window snapshot_every
    max_ticks listen flush_every ingest_queue ingest_policy idle_timeout
    snapshot_dir report_dir =
  (* A peer hanging up mid-write must surface as EPIPE, not kill the
     daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let model = model_for scale seed topology in
  let policy =
    match Tomo_net.Hub.policy_of_string ingest_policy with
    | Ok p -> p
    | Error e -> failwith ("--ingest-policy: " ^ e)
  in
  let addr = parse_addr ~flag:"--ingest" ingest in
  Option.iter mkdir_p snapshot_dir;
  Option.iter mkdir_p report_dir;
  let hub =
    Tomo_net.Hub.create ~queue_capacity:ingest_queue ~policy ~idle_timeout
      ?snapshot_dir ?report_dir ~snapshot_every ?max_ticks ~model ~window ()
  in
  (* Graceful shutdown: the handler only flips the hub's stop atomic
     (signal-safe); the drain loop notices within its ticker period. *)
  let on_signal _ = Tomo_net.Hub.request_stop hub in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let telemetry =
    Option.map
      (fun spec ->
        start_telemetry ~spec ~scale ~seed ~topology ~source:("ingest", ingest)
          ~window
          ("hub", fun () -> Tomo_net.Hub.status_json hub))
      listen
  in
  let flusher =
    if flush_every > 0.0 then
      Some (Tomo_obs.Flusher.start ~period_s:flush_every ())
    else None
  in
  let listener =
    Tomo_obs.Exporter.serve ~events:"ingest" ~failure:"ingest accept failed"
      addr ~on_accept:(Tomo_net.Hub.attach hub)
  in
  Format.fprintf ppf
    "Ingesting framed tomo-trace streams on %s (window %d, queue %d, \
     policy %s)@."
    (Tomo_obs.Exporter.listen_to_string addr)
    window ingest_queue
    (Tomo_net.Hub.policy_to_string policy);
  Tomo_net.Hub.run hub;
  Tomo_obs.Exporter.stop listener;
  Option.iter Tomo_obs.Flusher.stop flusher;
  Option.iter Tomo_obs.Exporter.stop telemetry;
  let s = Tomo_net.Hub.stats hub in
  Format.fprintf ppf
    "Ingest done: %d peers served, %d dropped, %d ticks ingested, %d \
     frames (%d bytes), %d reports written@."
    s.Tomo_net.Hub.peers_connected s.Tomo_net.Hub.peers_dropped
    s.Tomo_net.Hub.ticks_ingested s.Tomo_net.Hub.frames_total
    s.Tomo_net.Hub.bytes_total s.Tomo_net.Hub.reports_written

let run_serve scale seed topology replay ingest window snapshot_in
    snapshot_out snapshot_every max_ticks report_out progress listen
    flush_every linger ingest_queue ingest_policy idle_timeout snapshot_dir
    report_dir =
  match (replay, ingest) with
  | Some _, Some _ ->
      failwith "--replay and --ingest are mutually exclusive"
  | None, None ->
      failwith "serve needs a stream: --replay FILE or --ingest ADDR"
  | Some replay, None ->
      run_serve_replay scale seed topology replay window snapshot_in
        snapshot_out snapshot_every max_ticks report_out progress listen
        flush_every linger
  | None, Some ingest ->
      run_serve_ingest scale seed topology ingest window snapshot_every
        max_ticks listen flush_every ingest_queue ingest_policy idle_timeout
        snapshot_dir report_dir

let connect_to addr =
  match addr with
  | Tomo_obs.Exporter.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tomo_obs.Exporter.Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (inet, port));
      fd

let write_all_fd fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let run_send_trace to_addr trace peer chunk best_effort =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = parse_addr ~flag:"--to" to_addr in
  let ic = if trace = "-" then stdin else open_in trace in
  let fd = connect_to addr in
  let buf = Buffer.create (chunk + 4096) in
  let records = ref 0 in
  let bytes = ref 0 in
  let flush_buf () =
    if Buffer.length buf > 0 then begin
      let b = Buffer.to_bytes buf in
      write_all_fd fd b (Bytes.length b);
      bytes := !bytes + Bytes.length b;
      Buffer.clear buf
    end
  in
  let send_record line =
    Tomo_net.Frame.encode_into buf line;
    incr records;
    if Buffer.length buf >= chunk then flush_buf ()
  in
  let hung_up = ref None in
  (try
     Option.iter (fun name -> send_record ("peer " ^ name)) peer;
     let rec go () =
       match In_channel.input_line ic with
       | None -> ()
       | Some line ->
           if String.trim line <> "" then send_record line;
           go ()
     in
     go ();
     flush_buf ()
   with Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as e), _, _) ->
     hung_up := Some (Unix.error_message e));
  if trace <> "-" then close_in ic;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match !hung_up with
  | None ->
      Format.fprintf ppf "Sent %d records (%d bytes) to %s@." !records
        !bytes
        (Tomo_obs.Exporter.listen_to_string addr)
  | Some reason when best_effort ->
      Format.fprintf ppf
        "Daemon hung up after %d bytes (%s) — best-effort, exiting 0@."
        !bytes reason
  | Some reason ->
      failwith
        (Printf.sprintf "daemon hung up mid-send after %d bytes: %s" !bytes
           reason)

let run_batch_report scale seed topology replay window report_out =
  let model = model_for scale seed topology in
  let source = Stream.Source.of_replay_file replay in
  check_source_paths source model;
  let cols = List.rev (Stream.Source.fold source (fun acc c -> c :: acc) []) in
  Stream.Source.close source;
  let total = List.length cols in
  if total < window then
    failwith
      (Printf.sprintf
         "trace has only %d intervals; --window %d never fills" total
         window);
  let last = Array.of_list cols in
  let first = total - window in
  let obs =
    Tomo.Observations.create ~t_intervals:window
      ~n_paths:model.Tomo.Model.n_paths
  in
  for i = 0 to window - 1 do
    Tomo.Observations.set_interval_statuses obs ~interval:i
      ~good:last.(first + i)
  done;
  let result, engine = Tomo.Correlation_complete.compute model obs in
  let est = { Stream.Engine.tick = total; result; engine } in
  summarize est ~window;
  write_report report_out (Stream.Engine.report_to_string ~window est)

let all scale seed seeds csv =
  run_fig3 scale seed seeds csv;
  fig4a scale seed seeds csv;
  fig4b scale seed seeds csv;
  run_fig4c scale seed seeds csv;
  run_fig4d scale seed seeds csv;
  Tomo_experiments.Render.table2 ppf

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun scale seed seeds jobs trace mout eout ->
          with_obs jobs trace mout eout (fun () -> f scale seed seeds))
      $ scale_arg $ seed_arg $ seeds_arg $ jobs_arg $ trace_arg
      $ metrics_out_arg $ events_out_arg)

let cmd_csv name doc f =
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const (fun scale seed seeds csv jobs trace mout eout ->
          with_obs jobs trace mout eout (fun () -> f scale seed seeds csv))
      $ scale_arg $ seed_arg $ seeds_arg $ csv_arg $ jobs_arg $ trace_arg
      $ metrics_out_arg $ events_out_arg)

let gen_trace_cmd =
  Cmd.v
    (Cmd.info "gen-trace"
       ~doc:
         "Simulate a workload and write its per-interval measurement \
          stream as a replayable tomo-trace file.")
    Term.(
      const (fun scale seed topology scenario nonstationary intervals out
                jobs trace mout eout ->
          with_obs jobs trace mout eout (fun () ->
              run_gen_trace scale seed topology scenario nonstationary
                intervals out))
      $ scale_arg $ seed_arg $ topology_arg $ scenario_arg
      $ nonstationary_arg $ intervals_arg $ out_arg $ jobs_arg $ trace_arg
      $ metrics_out_arg $ events_out_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online sliding-window engine over a measurement \
          stream — a replayed file (--replay) or live framed streams \
          from send-trace peers (--ingest), re-estimating congestion \
          probabilities every interval; snapshots allow a killed server \
          to resume bit-identically, and --listen serves scrapeable \
          live telemetry while it runs.")
    Term.(
      const (fun scale seed topology replay ingest window snapshot_in
                snapshot_out snapshot_every max_ticks report_out progress
                listen flush_every linger ingest_queue ingest_policy
                idle_timeout snapshot_dir report_dir jobs trace mout eout ->
          with_obs jobs trace mout eout (fun () ->
              run_serve scale seed topology replay ingest window snapshot_in
                snapshot_out snapshot_every max_ticks report_out progress
                listen flush_every linger ingest_queue ingest_policy
                idle_timeout snapshot_dir report_dir))
      $ scale_arg $ seed_arg $ topology_arg $ replay_opt_arg $ ingest_arg
      $ window_arg $ snapshot_in_arg $ snapshot_out_arg $ snapshot_every_arg
      $ max_ticks_arg $ report_out_arg $ progress_arg $ listen_arg
      $ flush_every_arg $ linger_arg $ ingest_queue_arg $ ingest_policy_arg
      $ idle_timeout_arg $ snapshot_dir_arg $ report_dir_arg $ jobs_arg
      $ trace_arg $ metrics_out_arg $ events_out_arg)

let send_trace_cmd =
  Cmd.v
    (Cmd.info "send-trace"
       ~doc:
         "Stream a tomo-trace file to a serve --ingest daemon over its \
          Unix or TCP socket, length-prefix framing each record; with \
          --peer the daemon keys the stream's snapshots/reports by that \
          name, so re-sending the same trace resumes a killed daemon \
          bit-identically.")
    Term.(
      const run_send_trace
      $ to_arg $ trace_in_arg $ peer_name_arg $ chunk_arg $ best_effort_arg)

let batch_report_cmd =
  Cmd.v
    (Cmd.info "batch-report"
       ~doc:
         "Run the batch pipeline over the last --window intervals of a \
          replay file and write the same tomo-report format as serve — \
          the two must diff equal.")
    Term.(
      const (fun scale seed topology replay window report_out jobs trace
                mout eout ->
          with_obs jobs trace mout eout (fun () ->
              run_batch_report scale seed topology replay window report_out))
      $ scale_arg $ seed_arg $ topology_arg $ replay_arg $ window_arg
      $ report_out_arg $ jobs_arg $ trace_arg $ metrics_out_arg
      $ events_out_arg)

let table2_cmd =
  Cmd.v
    (Cmd.info "table2" ~doc:"Print the paper's Table 2 (static).")
    Term.(const (fun () -> Tomo_experiments.Render.table2 ppf) $ const ())

let () =
  let info =
    Cmd.info "tomo_cli" ~version:"1.0.0"
      ~doc:
        "Reproduce the evaluation of 'Shifting Network Tomography Toward \
         A Practical Goal' (CoNEXT 2011)."
  in
  let cmds =
    [
      cmd_csv "fig3" "Figure 3: Boolean-Inference accuracy (both panels)."
        run_fig3;
      cmd_csv "fig4a" "Figure 4(a): PC error on Brite topologies." fig4a;
      cmd_csv "fig4b" "Figure 4(b): PC error on Sparse topologies." fig4b;
      cmd_csv "fig4c" "Figure 4(c): error CDF (No Independence, Sparse)."
        run_fig4c;
      cmd_csv "fig4d" "Figure 4(d): links vs correlation subsets." run_fig4d;
      cmd "ablation" "Subset-size budget ablation (§4)." run_ablation;
      cmd "fallback" "Chain-link fallback strategy ablation." run_fallback;
      cmd "probes" "E2E-Monitoring sensitivity under packet probing."
        run_probes;
      cmd "convergence" "Accuracy vs experiment length." run_convergence;
      cmd "report" "Operator-facing peer congestion report (§1 scenario)."
        run_report;
      cmd "summary" "Print generated topology statistics." run_summary;
      cmd "identifiability"
        "Structural identifiability analysis of the generated topologies: \
         ambiguous links, per-correlation-set inducible-subset bounds."
        run_identifiability;
      cmd_csv "all" "Run every figure and table." all;
      table2_cmd;
      gen_trace_cmd;
      serve_cmd;
      send_trace_cmd;
      batch_report_cmd;
    ]
  in
  exit (Cmd.eval (Cmd.group info cmds))
