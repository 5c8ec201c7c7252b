(* Structured JSONL event log for long-lived processes: one JSON object
   per line, appended as lifecycle events happen (source open/EOF,
   re-selection, snapshot written/restored, pool resize, ...).  Unlike
   Trace spans — which measure durations and are drained in bulk on
   flush — events are point-in-time facts written immediately, so a
   crashed daemon's log still ends at the crash.

   Disabled (the default) emission is a single branch.  Writes take a
   mutex so events from worker domains and the exporter thread
   interleave as whole lines, never torn. *)

let lock = Mutex.create ()
let out : out_channel option ref = ref None
let owns : bool ref = ref false
let enabled_flag = ref false

let enabled () = !enabled_flag

(* ------------------------------------------------------------------ *)
(* Rendering (pure, exposed for the escaping property test)            *)
(* ------------------------------------------------------------------ *)

let line ~ts event attrs =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"ts\":%.6f,\"event\":" ts;
  Json.add_string buf event;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      Json.add_string buf v)
    attrs;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Configuration and emission                                          *)
(* ------------------------------------------------------------------ *)

let close () =
  Mutex.lock lock;
  (match !out with
  | Some oc ->
      (try Stdlib.flush oc with Sys_error _ -> ());
      if !owns then close_out_noerr oc
  | None -> ());
  out := None;
  owns := false;
  enabled_flag := false;
  Mutex.unlock lock

let configure = function
  | None -> close ()
  | Some path ->
      close ();
      Mutex.lock lock;
      (if path = "-" then begin
         out := Some stderr;
         owns := false
       end
       else begin
         out :=
           Some (open_out_gen [ Open_creat; Open_append; Open_text ] 0o644 path);
         owns := true
       end);
      enabled_flag := true;
      Mutex.unlock lock

let emit ?ts event attrs =
  if !enabled_flag then begin
    let ts = match ts with Some t -> t | None -> Unix.gettimeofday () in
    let l = line ~ts event attrs in
    Mutex.lock lock;
    (match !out with
    | Some oc -> (
        try
          output_string oc l;
          output_char oc '\n';
          Stdlib.flush oc
        with Sys_error msg ->
          Sink.record_error ("cannot write event log: " ^ msg);
          Printf.eprintf "tomo_obs: cannot write event log: %s\n%!" msg)
    | None -> ());
    Mutex.unlock lock
  end
