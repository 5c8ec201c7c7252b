(* What the subcommands of tomo_cli share: the observability flags and
   the sinks they configure, the flags of more than one family, the
   model a (scale, seed, topology) triple names, and the report
   writer. *)

open Cmdliner
module W = Tomo_experiments.Workload
module Stream = Tomo_stream

let ppf = Format.std_formatter

(* A closed choice, parsed by cmdliner and named by [to_string]. *)
let choice to_string values =
  Arg.enum (List.map (fun v -> (to_string v, v)) values)

(* A count: a positive integer, checked when the command line parses,
   so 0 or a negative value is a usage error naming its flag. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A socket address, checked when the command line parses; the string
   as typed rides along for /status. *)
let addr =
  Arg.conv'
    ( (fun s ->
        Result.map (fun l -> (s, l)) (Tomo_obs.Exporter.listen_of_string s)),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

let scale_arg =
  Arg.(
    value
    & opt (choice W.scale_to_string [ W.Small; W.Medium; W.Paper ]) W.Medium
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Experiment scale: small, medium or paper.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for the experiment.")

let seeds_arg =
  Arg.(
    value & opt positive 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:
          "Average the figure over N topologies (seeds SEED..SEED+N-1). \
           Only fig3, fig4a, fig4b and all take it; all averages those \
           three figures and runs the others on SEED.")

(* A term applying [f] to --scale and --seed. *)
let experiment f = Term.(const f $ scale_arg $ seed_arg)

(* The same for a figure that averages over --seeds. *)
let averaged f = Term.(experiment f $ seeds_arg)

let topology_arg =
  Arg.(
    value
    & opt (choice W.topology_to_string [ W.Brite; W.Sparse ]) W.Brite
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Topology family the trace was measured on: brite or sparse. \
           Together with --scale and --seed this deterministically \
           rebuilds the model (link/path incidence, correlation sets).")

(* Optional for serve, which may ingest instead; required for
   batch-report. *)
let replay =
  Arg.(
    opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Measurement stream to replay: a tomo-trace file (\"-\" for \
           stdin) or an archived tomo-observations file (detected by \
           header). For serve, mutually exclusive with --ingest.")

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

let report_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-out" ] ~docv:"FILE"
        ~doc:
          "Write the final-window estimate as a diffable tomo-report \
           (\"-\" for stdout).")

(* ------------------------------------------------------------------ *)
(* Observability flags                                                 *)
(* ------------------------------------------------------------------ *)

let jobs_arg =
  Arg.(
    value
    & opt (some positive) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run experiment cells — and the per-interval probe \
           simulation inside each cell, including gen-trace — on \
           $(docv) domains (default: TOMO_JOBS, or one less than the \
           available cores). $(docv)=1 forces sequential execution; \
           results are bit-identical either way.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record spans and metrics while the command runs, then print \
           the span tree and a metrics table (same as TOMO_TRACE=1).")

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
   the TOMO_TRACE / TOMO_METRICS_OUT / TOMO_EVENTS_OUT environment), run
   the work and flush the sinks.  Events are configured before the pool
   resize so the startup [pool_resize] lands in the log. *)
let with_obs jobs trace metrics_out events_out run () =
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
  run ();
  Tomo_obs.Sink.flush ();
  Tomo_obs.Events.close ()

(* A subcommand: its info and a term for its work, a thunk that runs
   once the whole command line has parsed, inside the observability
   flags' sinks. *)
let cmd name doc run =
  ( Cmd.info name ~doc,
    Term.(
      const with_obs $ jobs_arg $ trace_arg $ metrics_out_arg
      $ events_out_arg $ run) )

(* ------------------------------------------------------------------ *)
(* Models, replay sources and reports                                  *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> Filename.dirname dir && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let model_for scale seed topology =
  let spec = W.spec ~scale ~seed topology Tomo_netsim.Scenario.Random in
  W.model_of_overlay (W.generate_overlay spec)

(* The replay source at [path], checked against [model]'s path count. *)
let open_replay model path =
  let source = Stream.Source.of_replay_file path in
  let sp = Stream.Source.n_paths source
  and mp = model.Tomo.Model.n_paths in
  if sp <> mp then
    failwith
      (Printf.sprintf
         "%s: replay source has %d paths but the model has %d — wrong \
          --topology/--scale/--seed for this trace?"
         path sp mp);
  source

(* Print the final-window estimate's summary line, and write its
   tomo-report to [report_out] ("-" for stdout) if given. *)
let report_estimate (est : Stream.Engine.estimate) ~window report_out =
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
    r.Tomo.Pc_result.n_vars identifiable n_links congested;
  Option.iter
    (fun path ->
      let text = Stream.Engine.report_to_string ~window est in
      if path = "-" then print_string text
      else Tomo_obs.Sink.write_atomic path text)
    report_out
