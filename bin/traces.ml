(* Trace files: gen-trace writes one, batch-report runs the batch
   pipeline over one, send-trace streams one to a serve --ingest
   daemon. *)

open Cmdliner
open Common

let scenario_arg =
  Arg.(
    value
    & opt
        (choice Tomo_netsim.Scenario.kind_to_string
           Tomo_netsim.Scenario.[ Random; Concentrated; No_independence ])
        Tomo_netsim.Scenario.Random
    & info [ "scenario" ] ~docv:"SCENARIO"
        ~doc:"Congestion scenario for the simulated trace.")

let nonstationary_arg =
  Arg.(
    value & flag
    & info [ "nonstationary" ]
        ~doc:"Redraw congestion probabilities every few intervals (§3.2).")

let intervals_arg =
  Arg.(
    value
    & opt (some positive) None
    & info [ "intervals" ] ~docv:"T"
        ~doc:"Trace length in intervals (default: the scale's length).")

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")

let to_arg =
  Arg.(
    required
    & opt (some addr) None
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

let gen_trace scale seed topology scenario nonstationary intervals out () =
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

let batch_report scale seed topology replay window report_out () =
  let model = model_for scale seed topology in
  let source = open_replay model replay in
  let cols = List.rev (Stream.Source.fold source (fun acc c -> c :: acc) []) in
  Stream.Source.close source;
  let total = List.length cols in
  if total < window then
    failwith
      (Printf.sprintf "%s: trace has only %d intervals; --window %d never fills"
         replay total window);
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
  report_estimate { Stream.Engine.tick = total; result; engine } ~window
    report_out

let write_all_fd fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let send_trace (_, addr) trace peer chunk best_effort () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ic = if trace = "-" then stdin else open_in trace in
  let fd = Tomo_obs.Exporter.connect addr in
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
        (Printf.sprintf "%s: daemon hung up mid-send after %d bytes: %s"
           (Tomo_obs.Exporter.listen_to_string addr)
           !bytes reason)

let cmds =
  [
    cmd "gen-trace"
      "Simulate a workload and write its per-interval measurement stream \
       as a replayable tomo-trace file."
      Term.(
        const gen_trace $ scale_arg $ seed_arg $ topology_arg $ scenario_arg
        $ nonstationary_arg $ intervals_arg $ out_arg);
    cmd "batch-report"
      "Run the batch pipeline over the last --window intervals of a replay \
       file and write the same tomo-report format as serve — the two must \
       diff equal."
      Term.(
        const batch_report $ scale_arg $ seed_arg $ topology_arg
        $ Arg.required replay $ window_arg $ report_out_arg);
    (* No observability flags: --trace names the file to send. *)
    ( Cmd.info "send-trace"
        ~doc:
          "Stream a tomo-trace file to a serve --ingest daemon over its \
           Unix or TCP socket, length-prefix framing each record; with \
           --peer the daemon keys the stream's snapshots/reports by that \
           name, so re-sending the same trace resumes a killed daemon \
           bit-identically.",
      Term.(
        const send_trace $ to_arg $ trace_in_arg $ peer_name_arg $ chunk_arg
        $ best_effort_arg) );
  ]
