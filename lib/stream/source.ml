module Bitset = Tomo_util.Bitset
module Obs = Tomo_obs

type t = {
  n_paths : int;
  next : unit -> Bitset.t option;
  close : unit -> unit;
}

let n_paths t = t.n_paths
let next t = t.next ()
let close t = t.close ()

let fold source f init =
  let rec go acc =
    match next source with None -> acc | Some good -> go (f acc good)
  in
  go init

let drop source n =
  let rec go dropped =
    if dropped >= n then dropped
    else match next source with None -> dropped | Some _ -> go (dropped + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* tomo-trace v1 from a file or stdin.  The record grammar itself lives
   in {!Record}, shared with the socket ingestion plane.               *)
(* ------------------------------------------------------------------ *)

let of_trace_file path =
  let filename, owns_channel, ic =
    if path = "-" then ("<stdin>", false, stdin)
    else (path, true, open_in path)
  in
  let rcd = Record.create ~origin:filename () in
  (* Validate the header and path count eagerly, so a wrong file fails
     at open time rather than on the first [next]. *)
  let rec eat_until_paths saw_header =
    match In_channel.input_line ic with
    | None ->
        if saw_header then
          Record.fail rcd "truncated trace: missing 'paths <n>' line"
        else Record.fail_at ~origin:filename ~lineno:1 "empty trace"
    | Some line -> (
        match Record.feed rcd line with
        | Record.Paths n -> n
        | Record.Header -> eat_until_paths true
        | Record.Blank -> eat_until_paths saw_header
        | Record.Tick _ -> assert false (* unreachable before Paths *))
  in
  (* A header that fails raises before there is a source to close. *)
  let n_paths =
    try eat_until_paths false
    with e ->
      if owns_channel then close_in_noerr ic;
      raise e
  in
  Obs.Events.emit "source_open"
    [ ("source", filename); ("paths", string_of_int n_paths) ];
  let closed = ref false and eof = ref false in
  (* Feed lines until one carries a tick batch; [None] = clean EOF. *)
  let rec next () =
    if !closed || !eof then None
    else
      match In_channel.input_line ic with
      | None ->
          eof := true;
          Obs.Events.emit "source_eof"
            [
              ("source", filename);
              ("ticks", string_of_int (Record.next_tick rcd));
            ];
          None
      | Some line -> (
          match Record.feed rcd line with
          | Record.Tick good -> Some good
          | Record.Blank | Record.Header | Record.Paths _ -> next ())
  in
  let close () =
    if not !closed then begin
      closed := true;
      if owns_channel then close_in ic
    end
  in
  { n_paths; next; close }

(* ------------------------------------------------------------------ *)
(* Replaying a batch observations matrix interval by interval           *)
(* ------------------------------------------------------------------ *)

let of_observations obs =
  let n_paths = Tomo.Observations.n_paths obs in
  Obs.Events.emit "source_open"
    [ ("source", "<observations>"); ("paths", string_of_int n_paths) ];
  let cursor = ref 0 in
  let next () =
    if !cursor >= Tomo.Observations.t_intervals obs then None
    else begin
      let good = Tomo.Observations.good_paths_at obs ~interval:!cursor in
      incr cursor;
      Some good
    end
  in
  { n_paths; next; close = ignore }

(* ------------------------------------------------------------------ *)
(* Format sniffing: accept either replayable format by header           *)
(* ------------------------------------------------------------------ *)

let of_replay_file path =
  if path = "-" then of_trace_file path
  else
    let header =
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> try input_line ic with End_of_file -> "")
    in
    match String.trim header with
    | "tomo-observations v1" ->
        of_observations (Tomo.Observations_io.load path)
    | "tomo-trace v1" -> of_trace_file path
    | "" ->
        failwith
          (Printf.sprintf
             "%s: empty or truncated replay file — expected a \
              'tomo-trace v1' or 'tomo-observations v1' header"
             path)
    | other ->
        Record.fail_at ~origin:path ~lineno:1
          "unknown replay format %S (expected 'tomo-trace v1' or \
           'tomo-observations v1')"
          other
