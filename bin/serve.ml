(* serve: the online sliding-window engine over a replayed file
   (--replay) or over live framed streams from send-trace peers
   (--ingest), with the live telemetry of either daemon (--listen). *)

open Cmdliner
open Common
module Hub = Tomo_net.Hub

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
    value & opt positive 10
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
    & opt (some addr) None
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
    value & opt seconds 0.0
    & info [ "flush-every" ] ~docv:"SECONDS"
        ~doc:
          "Flush the metrics/trace sinks every $(docv) seconds (atomic \
           write + rename) instead of only at exit, so a long run's \
           telemetry files stay current. 0 disables periodic flushing.")

let linger_arg =
  Arg.(
    value & opt seconds 0.0
    & info [ "linger" ] ~docv:"SECONDS"
        ~doc:
          "With --listen: keep serving the telemetry endpoints for \
           $(docv) seconds after the replay drains, so a final scrape \
           can observe the finished run.")

let ingest_arg =
  Arg.(
    value
    & opt (some addr) None
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
    value & opt positive 64
    & info [ "ingest-queue" ] ~docv:"N"
        ~doc:
          "Per-peer bounded queue capacity in ticks: how far a peer's \
           reader may run ahead of its engine before backpressure (see \
           --ingest-policy) kicks in.")

let ingest_policy = Arg.enum [ ("block", Hub.Block); ("drop", Hub.Drop_peer) ]

let ingest_policy_arg =
  Arg.(
    value & opt ingest_policy Hub.Block
    & info [ "ingest-policy" ] ~docv:"POLICY"
        ~doc:
          "What to do when a peer's queue is full: \"block\" parks the \
           reader (the peer's TCP writes eventually stall — ordinary \
           backpressure), \"drop\" disconnects the slow peer to protect \
           the rest.")

let idle_timeout_arg =
  Arg.(
    value & opt seconds 0.0
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

(* What both daemons take. *)
type daemon = {
  scale : W.scale;
  seed : int;
  topology : W.topology;
  window : int;
  snapshot_every : int;
  max_ticks : int option;
  listen : (string * Tomo_obs.Exporter.listen) option;
  flush_every : float;
}

let daemon_term =
  let daemon scale seed topology window snapshot_every max_ticks listen
      flush_every =
    {
      scale;
      seed;
      topology;
      window;
      snapshot_every;
      max_ticks;
      listen;
      flush_every;
    }
  in
  Term.(
    const daemon $ scale_arg $ seed_arg $ topology_arg $ window_arg
    $ snapshot_every_arg $ max_ticks_arg $ listen_arg $ flush_every_arg)

(* The telemetry exporter of either daemon, if --listen was given.
   /status is {"config":{..,<source>:..,..},<view>:<body ()>}: [source]
   names the stream ("replay" or "ingest") and [view] the daemon's own
   JSON view ("engine" or "hub"). *)
let start_telemetry d ~source:(kind, addr) ?health (view, body) =
  Option.map
    (fun (_, listen) ->
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
          (Tomo_obs.Json.quote (W.scale_to_string d.scale))
          d.seed
          (Tomo_obs.Json.quote (W.topology_to_string d.topology))
          kind (Tomo_obs.Json.quote addr) d.window view (body ())
      in
      let exporter = Tomo_obs.Exporter.start ?health ~status listen in
      Format.fprintf ppf "Telemetry on %s: /metrics /healthz /status@."
        (Tomo_obs.Exporter.listen_to_string listen);
      exporter)
    d.listen

let start_flusher d =
  if d.flush_every > 0.0 then
    Some (Tomo_obs.Flusher.start ~period_s:d.flush_every ())
  else None

let serve_replay d snapshot_in snapshot_out report_out progress linger replay
    =
  let model = model_for d.scale d.seed d.topology in
  let engine =
    match snapshot_in with
    | Some path ->
        let snap = Stream.Snapshot.load path in
        let engine =
          try Stream.Engine.of_snapshot ~model snap
          with Failure msg -> failwith (path ^ ": " ^ msg)
        in
        Format.fprintf ppf
          "Restored snapshot %s: %d ticks ingested, window %d@." path
          snap.Stream.Snapshot.ticks snap.Stream.Snapshot.capacity;
        engine
    | None -> Stream.Engine.create ~model ~window:d.window ()
  in
  (* The exporter's callbacks run on its own thread; they read the
     status the engine thread publishes after each tick, never the live
     engine. *)
  let published = Atomic.make (Stream.Engine.status engine) in
  let publish engine = Atomic.set published (Stream.Engine.status engine) in
  let started = Tomo_obs.Clock.now () in
  let engine_json () =
    Stream.Engine.status_json
      ~uptime_s:(Tomo_obs.Clock.now () -. started)
      ?snapshot_age_s:
        (Option.map
           (fun t0 -> Unix.gettimeofday () -. t0)
           (Stream.Snapshot.last_saved_at ()))
      ?last_error:(Tomo_obs.Sink.last_error ())
      (Atomic.get published)
  in
  let telemetry =
    start_telemetry d ~source:("replay", replay) ~health:engine_json
      ("engine", engine_json)
  in
  let flusher = start_flusher d in
  let source = open_replay model replay in
  let already = Stream.Engine.ticks engine in
  if already > 0 then begin
    let skipped = Stream.Source.drop source already in
    if skipped < already then
      failwith
        (Printf.sprintf
           "%s: replay has only %d of the %d intervals the snapshot \
            already ingested — wrong trace for this snapshot?"
           replay skipped already)
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
    Stream.Engine.run ?snapshot_out ~snapshot_every:d.snapshot_every
      ?max_ticks:d.max_ticks engine source ~on_tick
  in
  Stream.Source.close source;
  publish engine;
  if Option.is_some telemetry && linger > 0.0 then begin
    Format.fprintf ppf "Replay drained; telemetry lingers %gs@." linger;
    Thread.delay linger
  end;
  Option.iter Tomo_obs.Flusher.stop flusher;
  Option.iter Tomo_obs.Exporter.stop telemetry;
  let window = Stream.Window.capacity (Stream.Engine.window engine) in
  match if Option.is_some last then last else Stream.Engine.current engine with
  | None ->
      Format.fprintf ppf
        "Stream ended after %d ticks — window (capacity %d) never \
         filled; no estimate.@."
        (Stream.Engine.ticks engine)
        window
  | Some est -> report_estimate est ~window report_out

let serve_ingest d ingest_queue policy idle_timeout snapshot_dir report_dir
    (ingest, addr) =
  (* A peer hanging up mid-write must surface as EPIPE, not kill the
     daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let model = model_for d.scale d.seed d.topology in
  Option.iter mkdir_p snapshot_dir;
  Option.iter mkdir_p report_dir;
  let hub =
    Hub.create ~queue_capacity:ingest_queue ~policy ~idle_timeout
      ?snapshot_dir ?report_dir ~snapshot_every:d.snapshot_every
      ?max_ticks:d.max_ticks ~model ~window:d.window ()
  in
  (* Graceful shutdown: the handler only flips the hub's stop atomic
     (signal-safe); the drain loop notices within its ticker period. *)
  let on_signal _ = Hub.request_stop hub in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let telemetry =
    start_telemetry d ~source:("ingest", ingest)
      ("hub", fun () -> Hub.status_json hub)
  in
  let flusher = start_flusher d in
  let listener =
    Tomo_obs.Exporter.serve ~events:"ingest" ~failure:"ingest accept failed"
      addr ~on_accept:(Hub.attach hub)
  in
  Format.fprintf ppf
    "Ingesting framed tomo-trace streams on %s (window %d, queue %d, \
     policy %a)@."
    (Tomo_obs.Exporter.listen_to_string addr)
    d.window ingest_queue (Arg.conv_printer ingest_policy) policy;
  Hub.run hub;
  Tomo_obs.Exporter.stop listener;
  Option.iter Tomo_obs.Flusher.stop flusher;
  Option.iter Tomo_obs.Exporter.stop telemetry;
  let s = Hub.stats hub in
  Format.fprintf ppf
    "Ingest done: %d peers served, %d dropped, %d ticks ingested, %d \
     frames (%d bytes), %d reports written@."
    s.Hub.peers_connected s.Hub.peers_dropped s.Hub.ticks_ingested
    s.Hub.frames_total s.Hub.bytes_total s.Hub.reports_written

(* Which daemon runs is decided once the command line has parsed, so a
   missing or doubled stream is reported like any other bad input. *)
let serve replay ingest serve_replay serve_ingest () =
  match (replay, ingest) with
  | Some file, None -> serve_replay file
  | None, Some addr -> serve_ingest addr
  | Some _, Some _ -> failwith "--replay and --ingest are mutually exclusive"
  | None, None ->
      failwith "serve needs a stream: --replay FILE or --ingest ADDR"

let cmds =
  [
    cmd "serve"
      "Run the online sliding-window engine over a measurement stream — \
       a replayed file (--replay) or live framed streams from send-trace \
       peers (--ingest), re-estimating congestion probabilities every \
       interval; snapshots allow a killed server to resume \
       bit-identically, and --listen serves scrapeable live telemetry \
       while it runs."
      Term.(
        const serve $ Arg.value replay $ ingest_arg
        $ (const serve_replay $ daemon_term $ snapshot_in_arg
         $ snapshot_out_arg $ report_out_arg $ progress_arg $ linger_arg)
        $ (const serve_ingest $ daemon_term $ ingest_queue_arg
         $ ingest_policy_arg $ idle_timeout_arg $ snapshot_dir_arg
         $ report_dir_arg));
  ]
