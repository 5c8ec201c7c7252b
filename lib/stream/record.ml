module Bitset = Tomo_util.Bitset

let header_magic = "tomo-trace v1"

type state = Expect_header | Expect_paths | Expect_ticks

type t = {
  origin : string;
  mutable lineno : int;
  mutable state : state;
  mutable paths : int;
  mutable next_tick : int;
}

type event = Blank | Header | Paths of int | Tick of Bitset.t

let create ?(origin = "<record>") () =
  { origin; lineno = 0; state = Expect_header; paths = 0; next_tick = 0 }

let next_tick t = t.next_tick

let fail_at ~origin ~lineno fmt =
  Format.kasprintf
    (fun msg -> failwith (Printf.sprintf "%s:%d: %s" origin lineno msg))
    fmt

let fail t fmt = fail_at ~origin:t.origin ~lineno:t.lineno fmt

let words l = String.split_on_char ' ' l |> List.filter (( <> ) "")

let parse_tick t id bits =
  let id =
    match int_of_string_opt id with
    | Some v -> v
    | None -> fail t "expected integer tick id, got %S" id
  in
  if id <> t.next_tick then
    fail t
      "out-of-order tick: expected %d, got %d (truncated or reordered \
       trace?)"
      t.next_tick id;
  if String.length bits <> t.paths then
    fail t "ragged tick: expected %d status characters, got %d" t.paths
      (String.length bits);
  let good = Bitset.create t.paths in
  String.iteri
    (fun p ch ->
      match ch with
      | '1' -> Bitset.set good p
      | '0' -> ()
      | ch -> fail t "bad status character %C (expected 0 or 1)" ch)
    bits;
  t.next_tick <- t.next_tick + 1;
  good

let feed t record =
  t.lineno <- t.lineno + 1;
  let line = String.trim record in
  if line = "" then Blank
  else
    match t.state with
    | Expect_header ->
        if line = header_magic then begin
          t.state <- Expect_paths;
          Header
        end
        else fail t "unknown trace format: %S" line
    | Expect_paths -> (
        match words line with
        | [ "paths"; n ] -> (
            match int_of_string_opt n with
            | Some v when v > 0 ->
                t.paths <- v;
                t.state <- Expect_ticks;
                Paths v
            | _ -> fail t "expected a positive path count, got %S" n)
        | _ -> fail t "expected 'paths <n>', got %S" line)
    | Expect_ticks -> (
        match words line with
        | [ "tick"; id; bits ] -> Tick (parse_tick t id bits)
        | _ -> fail t "unrecognized line %S" line)
