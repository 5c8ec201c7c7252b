type trace_mode = Trace_off | Trace_human | Trace_jsonl of string

let mode = ref Trace_off
let metrics_path : string option ref = ref None
let exit_hook_registered = ref false

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* JSON has no infinities; clamp degenerate histogram bounds to null. *)
let json_float buf v =
  if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.17g" v)
  else Buffer.add_string buf "null"

let json_fields buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      emit buf)
    fields;
  Buffer.add_char buf '}'

(* ------------------------------------------------------------------ *)
(* Span rendering                                                      *)
(* ------------------------------------------------------------------ *)

let pp_duration ppf s =
  if s >= 1.0 then Format.fprintf ppf "%8.2f s " s
  else if s >= 1e-3 then Format.fprintf ppf "%8.2f ms" (s *. 1e3)
  else Format.fprintf ppf "%8.1f us" (s *. 1e6)

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
      Format.fprintf ppf "  {%s}"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs))

let rec pp_span_at depth ppf (s : Trace.span) =
  Format.fprintf ppf "%s%-*s%a%a@."
    (String.make (2 * depth) ' ')
    (max 1 (48 - (2 * depth)))
    s.Trace.name pp_duration s.Trace.duration_s pp_attrs s.Trace.attrs;
  List.iter (pp_span_at (depth + 1) ppf) s.Trace.children

let pp_roots ppf = function
  | [] -> Format.fprintf ppf "(no spans recorded)@."
  | roots -> List.iter (pp_span_at 0 ppf) roots

let spans_jsonl buf spans =
  let rec emit path (s : Trace.span) =
    let path =
      if path = "" then s.Trace.name else path ^ "/" ^ s.Trace.name
    in
    json_fields buf
      [
        ("path", fun b -> Json.add_string b path);
        ("name", fun b -> Json.add_string b s.Trace.name);
        ("start_s", fun b -> json_float b s.Trace.start_s);
        ("duration_s", fun b -> json_float b s.Trace.duration_s);
        ( "attrs",
          fun b ->
            json_fields b
              (List.map
                 (fun (k, v) -> (k, fun b -> Json.add_string b v))
                 s.Trace.attrs) );
      ];
    Buffer.add_char buf '\n';
    List.iter (emit path) s.Trace.children
  in
  List.iter (emit "") spans

(* ------------------------------------------------------------------ *)
(* Metrics rendering                                                   *)
(* ------------------------------------------------------------------ *)

let pp_metrics_table ppf () =
  let snap = Metrics.snapshot () in
  if snap.Metrics.counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-42s%14d@." name v)
      snap.Metrics.counters
  end;
  if snap.Metrics.gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-42s%14g@." name v)
      snap.Metrics.gauges
  end;
  if snap.Metrics.histograms <> [] then begin
    Format.fprintf ppf "histograms:@.";
    List.iter
      (fun (name, (h : Metrics.histogram_stats)) ->
        if h.Metrics.count = 0 then
          Format.fprintf ppf "  %-42s%14s@." name "(empty)"
        else
          Format.fprintf ppf
            "  %-42scount=%d sum=%g min=%g max=%g p50=%.3g p95=%.3g \
             p99=%.3g@."
            name h.Metrics.count h.Metrics.sum h.Metrics.min_v
            h.Metrics.max_v
            (Metrics.quantile h 0.50)
            (Metrics.quantile h 0.95)
            (Metrics.quantile h 0.99))
      snap.Metrics.histograms
  end;
  if
    snap.Metrics.counters = [] && snap.Metrics.gauges = []
    && snap.Metrics.histograms = []
  then Format.fprintf ppf "(no metrics registered)@."

let snapshot_json (snap : Metrics.snapshot) =
  let buf = Buffer.create 512 in
  json_fields buf
    [
      ( "counters",
        fun b ->
          json_fields b
            (List.map
               (fun (name, v) ->
                 (name, fun b -> Buffer.add_string b (string_of_int v)))
               snap.Metrics.counters) );
      ( "gauges",
        fun b ->
          json_fields b
            (List.map
               (fun (name, v) -> (name, fun b -> json_float b v))
               snap.Metrics.gauges) );
      ( "histograms",
        fun b ->
          json_fields b
            (List.map
               (fun (name, (h : Metrics.histogram_stats)) ->
                 ( name,
                   fun b ->
                     json_fields b
                       [
                         ( "count",
                           fun b ->
                             Buffer.add_string b
                               (string_of_int h.Metrics.count) );
                         ("sum", fun b -> json_float b h.Metrics.sum);
                         ("min", fun b -> json_float b h.Metrics.min_v);
                         ("max", fun b -> json_float b h.Metrics.max_v);
                         ( "p50",
                           fun b -> json_float b (Metrics.quantile h 0.50) );
                         ( "p95",
                           fun b -> json_float b (Metrics.quantile h 0.95) );
                         ( "p99",
                           fun b -> json_float b (Metrics.quantile h 0.99) );
                         ( "buckets",
                           fun b ->
                             Buffer.add_char b '[';
                             List.iteri
                               (fun i (ub, n) ->
                                 if i > 0 then Buffer.add_char b ',';
                                 Buffer.add_char b '[';
                                 json_float b ub;
                                 Buffer.add_char b ',';
                                 Buffer.add_string b (string_of_int n);
                                 Buffer.add_char b ']')
                               h.Metrics.buckets;
                             Buffer.add_char b ']' );
                       ] ))
               snap.Metrics.histograms) );
    ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Configuration and flushing                                          *)
(* ------------------------------------------------------------------ *)

let flushed_once = ref false
let flush_lock = Mutex.create ()
let last_error_ref : string option ref = ref None
let last_error () = !last_error_ref
let record_error msg = last_error_ref := Some msg

(* The reason a [Sys_error] message gives, without the file name it
   may start with ([open_out]'s "name: reason"; a failed write or close
   gives the reason alone).  The reason is the text after the last
   ": ", which no system error string holds. *)
let reason msg =
  let rec from i =
    if i < 1 then msg
    else if msg.[i - 1] = ':' && msg.[i] = ' ' then
      String.sub msg (i + 1) (String.length msg - i - 1)
    else from (i - 1)
  in
  from (String.length msg - 1)

(* A sink that cannot be written must not take the results down with
   it: report, remember (for /healthz), and carry on.  The warning names
   [path] once, whichever step failed. *)
let nonfatal what path f =
  try f ()
  with Sys_error msg ->
    let msg = Printf.sprintf "cannot write %s %s: %s" what path (reason msg) in
    record_error msg;
    Printf.eprintf "tomo_obs: %s\n%!" msg

(* A scrape or kill between open and close must never observe a torn
   file, so write a hidden sibling temp file and rename it over the
   target.  Whatever fails — the write, the close or the rename — the
   temp file is removed before the exception propagates.  The close
   must be [close_out], inside the [try]: content shorter than the
   channel buffer reaches the disk only there, so that is where a full
   disk shows, and [Out_channel.with_open_bin] would swallow the error
   (it closes with [close_out_noerr]) and rename a truncated file over
   the last good one.  Otherwise the output is where and what [open_out]
   would make it: the temp file gets [open_out]'s mode (0o666 under the
   umask), a symlink is written through (the rename lands on the file it
   names, not on the link), and a device or pipe such as /dev/stdout,
   which a rename would replace rather than write, is written in place. *)
let replace path content =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  match (Unix.stat path).Unix.st_kind with
  | Unix.S_CHR | Unix.S_BLK | Unix.S_FIFO ->
      Out_channel.with_open_gen [ Open_wronly; Open_binary ] 0 path (fun oc ->
          output_string oc content;
          flush oc)
  | _ | (exception Unix.Unix_error _) -> (
      let tmp, oc =
        Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
          ~temp_dir:(Filename.dirname path)
          ("." ^ Filename.basename path)
          ".tmp"
      in
      try
        (try
           output_string oc content;
           close_out oc
         with e ->
           close_out_noerr oc;
           raise e);
        Sys.rename tmp path
      with e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e)

(* A failure names [path] as the caller gave it, once: not the temp
   file, nor the file a symlink resolves to. *)
let write_atomic path content =
  try replace path content
  with Sys_error msg -> raise (Sys_error (path ^ ": " ^ reason msg))

(* The body runs under [flush_lock]: a periodic flusher thread and an
   exiting main thread may both call [flush], and each completed span /
   metric must be emitted exactly once.  [take_roots] (not [roots] +
   [reset]) does the draining — reset would also clear another
   thread's open-span stack state and re-zero drop counters. *)
let flush () =
  Mutex.lock flush_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock flush_lock) @@ fun () ->
  flushed_once := true;
  (match !mode with
  | Trace_off -> ()
  | Trace_human ->
      let roots = Trace.take_roots () in
      let ppf = Format.std_formatter in
      Format.fprintf ppf "@.--- trace ---------------------------------@.";
      pp_roots ppf roots;
      if Metrics.enabled () then begin
        Format.fprintf ppf "--- metrics -------------------------------@.";
        pp_metrics_table ppf ()
      end;
      Format.pp_print_flush ppf ()
  | Trace_jsonl path ->
      let roots = Trace.take_roots () in
      if roots <> [] then begin
        let buf = Buffer.create 1024 in
        spans_jsonl buf roots;
        if path = "-" then (
          output_string stderr (Buffer.contents buf);
          Stdlib.flush stderr)
        else
          (* The close is inside the [try], as in [replace]: a full disk
             shows there, and a [Sys_error] it raises must reach
             [nonfatal] as it is, not wrapped in [Fun.Finally_raised]. *)
          nonfatal "trace file" path (fun () ->
              let oc =
                open_out_gen [ Open_creat; Open_append; Open_text ] 0o644 path
              in
              try
                output_string oc (Buffer.contents buf);
                close_out oc
              with e ->
                close_out_noerr oc;
                raise e)
      end);
  match !metrics_path with
  | None -> ()
  | Some path ->
      let json = snapshot_json (Metrics.snapshot ()) ^ "\n" in
      nonfatal "metrics file" path (fun () ->
          if path = "-" then begin
            output_string stdout json;
            Stdlib.flush stdout
          end
          else write_atomic path json)

let mode_of_env () =
  match Sys.getenv_opt "TOMO_TRACE" with
  | None | Some "" | Some "0" | Some "off" -> Trace_off
  | Some "1" | Some "human" | Some "tree" -> Trace_human
  | Some "json" | Some "jsonl" -> Trace_jsonl "-"
  | Some path -> Trace_jsonl path

let metrics_out_of_env () =
  match Sys.getenv_opt "TOMO_METRICS_OUT" with
  | None | Some "" -> None
  | Some path -> Some path

let init ?trace ?metrics_out () =
  mode := (match trace with Some m -> m | None -> mode_of_env ());
  metrics_path :=
    (match metrics_out with Some p -> Some p | None -> metrics_out_of_env ());
  Trace.set_enabled (!mode <> Trace_off);
  (* A human trace without a metrics file still collects (and prints)
     metrics; JSON-lines traces leave metrics to TOMO_METRICS_OUT. *)
  Metrics.set_enabled (!metrics_path <> None || !mode = Trace_human);
  if (!mode <> Trace_off || !metrics_path <> None) && not !exit_hook_registered
  then begin
    exit_hook_registered := true;
    (* Only flush at exit if nothing flushed explicitly, or new spans
       accumulated since — avoids printing everything twice. *)
    at_exit (fun () ->
        if (not !flushed_once) || Trace.roots () <> [] then flush ())
  end
