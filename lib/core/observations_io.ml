module Bitset = Tomo_util.Bitset

let write ppf obs =
  let n = Observations.n_paths obs in
  let t = Observations.t_intervals obs in
  Format.fprintf ppf "tomo-observations v1@.";
  Format.fprintf ppf "paths %d intervals %d@." n t;
  for p = 0 to n - 1 do
    let buf = Bytes.make t '0' in
    for i = 0 to t - 1 do
      if Observations.good_in_interval obs ~path:p ~interval:i then
        Bytes.set buf i '1'
    done;
    Format.fprintf ppf "row %d %s@." p (Bytes.to_string buf)
  done

let to_string obs =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  write ppf obs;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Every parse error points at [filename:lineno] so a truncated or ragged
   measurement archive names the offending line, not just its content —
   the streaming replay sources reuse this parser and surface the same
   diagnostics. *)
let fail ~filename ~lineno fmt =
  Format.kasprintf
    (fun msg -> failwith (Printf.sprintf "%s:%d: %s" filename lineno msg))
    fmt

let parse_status_bits ~filename ~lineno ~expected bits =
  if String.length bits <> expected then
    fail ~filename ~lineno
      "ragged row: expected %d status characters, got %d" expected
      (String.length bits);
  let b = Bitset.create expected in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> Bitset.set b i
      | '0' -> ()
      | c ->
          fail ~filename ~lineno "bad status character %C (expected 0 or 1)"
            c)
    bits;
  b

let of_string ?(filename = "<string>") s =
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let int_of lineno w =
    match int_of_string_opt w with
    | Some v -> v
    | None -> fail ~filename ~lineno "expected integer, got %S" w
  in
  match lines with
  | (_, header) :: rest when header = "tomo-observations v1" ->
      let n_paths = ref 0 and t_intervals = ref 0 in
      let header_seen = ref false in
      let rows = ref [] and n_rows = ref 0 in
      let last_lineno = ref 1 in
      List.iter
        (fun (lineno, line) ->
          last_lineno := lineno;
          match words line with
          | [ "paths"; n; "intervals"; t ] ->
              if !header_seen then
                fail ~filename ~lineno "duplicate 'paths ... intervals' line";
              header_seen := true;
              n_paths := int_of lineno n;
              t_intervals := int_of lineno t;
              if !n_paths <= 0 || !t_intervals <= 0 then
                fail ~filename ~lineno
                  "expected positive path and interval counts, got %d and %d"
                  !n_paths !t_intervals
          | "row" :: _ when not !header_seen ->
              fail ~filename ~lineno
                "row before the 'paths ... intervals' line"
          | [ "row"; id; bits ] ->
              let id = int_of lineno id in
              if id < 0 || id >= !n_paths then
                fail ~filename ~lineno "row id %d out of range [0, %d)" id
                  !n_paths;
              if List.mem_assoc id !rows then
                fail ~filename ~lineno "duplicate row %d" id;
              let b =
                parse_status_bits ~filename ~lineno ~expected:!t_intervals
                  bits
              in
              rows := (id, b) :: !rows;
              incr n_rows
          | _ -> fail ~filename ~lineno "unrecognized line %S" line)
        rest;
      if not !header_seen then
        fail ~filename ~lineno:!last_lineno
          "missing 'paths ... intervals' line";
      if !n_rows <> !n_paths then
        fail ~filename ~lineno:!last_lineno
          "truncated input: expected %d rows, found %d" !n_paths !n_rows;
      let path_good = Array.make !n_paths (Bitset.create 1) in
      List.iter (fun (id, b) -> path_good.(id) <- b) !rows;
      Observations.make ~t_intervals:!t_intervals ~path_good
  | (lineno, header) :: _ ->
      fail ~filename ~lineno "unknown observations format: %S" header
  | [] -> fail ~filename ~lineno:1 "empty observations file"

let save path obs = Tomo_obs.Sink.write_atomic path (to_string obs)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ~filename:path (In_channel.input_all ic))
