(* Tests for the observability library: span trees, the metrics
   registry and the JSON export shape.  Trace and Metrics hold
   process-global state, so every test restores the disabled default on
   the way out. *)

module Trace = Tomo_obs.Trace
module Metrics = Tomo_obs.Metrics
module Sink = Tomo_obs.Sink
module Events = Tomo_obs.Events
module Exporter = Tomo_obs.Exporter
module Flusher = Tomo_obs.Flusher
module Engine = Tomo_stream.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_tracing f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let with_metrics f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "first" (fun () -> ()) ;
        Trace.with_span "second" (fun () ->
            Trace.with_span "grandchild" (fun () -> ()));
        17)
  in
  check_int "thunk result passes through" 17 r;
  match Trace.roots () with
  | [ outer ] ->
      check_string "root name" "outer" outer.Trace.name;
      (match outer.Trace.children with
      | [ a; b ] ->
          check_string "children in execution order (1)" "first" a.Trace.name;
          check_string "children in execution order (2)" "second" b.Trace.name;
          check_int "grandchild attached" 1 (List.length b.Trace.children)
      | l -> Alcotest.failf "expected 2 children, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)

let test_span_timing_monotonic () =
  with_tracing @@ fun () ->
  Trace.with_span "parent" (fun () ->
      Trace.with_span "child" (fun () ->
          (* Make the child take a measurable amount of time. *)
          let s = ref 0.0 in
          for i = 1 to 20_000 do
            s := !s +. sqrt (float_of_int i)
          done;
          ignore !s));
  match Trace.roots () with
  | [ p ] ->
      let c = List.hd p.Trace.children in
      check_bool "durations are non-negative" true
        (p.Trace.duration_s >= 0.0 && c.Trace.duration_s >= 0.0);
      check_bool "child starts at or after parent" true
        (c.Trace.start_s >= p.Trace.start_s);
      check_bool "child fits inside parent" true
        (c.Trace.duration_s <= p.Trace.duration_s +. 1e-9)
  | _ -> Alcotest.fail "expected exactly one root"

let test_span_attrs () =
  with_tracing @@ fun () ->
  Trace.with_span "s" ~attrs:[ ("k", "v") ] (fun () ->
      Trace.add_attr "n" "42");
  match Trace.roots () with
  | [ s ] ->
      check_bool "literal attr recorded" true
        (List.mem_assoc "k" s.Trace.attrs);
      check_string "add_attr recorded" "42" (List.assoc "n" s.Trace.attrs)
  | _ -> Alcotest.fail "expected exactly one root"

let test_span_exception_safe () =
  with_tracing @@ fun () ->
  (try
     Trace.with_span "outer" (fun () ->
         Trace.with_span "thrower" (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* Both spans must have been closed despite the exception, and a new
     root must attach at the top level, not under a leaked open span. *)
  Trace.with_span "after" (fun () -> ());
  match Trace.roots () with
  | [ outer; after ] ->
      check_string "failed root closed" "outer" outer.Trace.name;
      check_int "thrower closed under outer" 1
        (List.length outer.Trace.children);
      check_string "subsequent span is a root" "after" after.Trace.name
  | l -> Alcotest.failf "expected 2 roots, got %d" (List.length l)

let test_span_disabled_noop () =
  Trace.set_enabled false;
  Trace.reset ();
  let r = Trace.with_span "ignored" ~attrs:[ ("a", "b") ] (fun () -> 3) in
  Trace.add_attr "also" "ignored";
  check_int "thunk still runs" 3 r;
  check_int "nothing recorded" 0 (List.length (Trace.roots ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_arithmetic () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test_obs.c1" in
  check_int "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:5 c;
  check_int "1 + 5" 6 (Metrics.counter_value c);
  let c' = Metrics.counter "test_obs.c1" in
  Metrics.incr c';
  check_int "same name interns to the same cell" 7 (Metrics.counter_value c)

let test_kind_mismatch () =
  let _ = Metrics.counter "test_obs.kind" in
  Alcotest.check_raises "counter name reused as gauge"
    (Invalid_argument
       "Metrics: \"test_obs.kind\" already registered as another kind")
    (fun () -> ignore (Metrics.gauge "test_obs.kind"))

let test_gauge () =
  with_metrics @@ fun () ->
  let g = Metrics.gauge "test_obs.g1" in
  check_bool "unset gauge reads None" true (Metrics.gauge_value g = None);
  Metrics.set_gauge g 2.5;
  Metrics.set_gauge g 4.0;
  check_bool "last write wins" true (Metrics.gauge_value g = Some 4.0)

let test_histogram () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test_obs.h1" in
  List.iter (Metrics.observe h) [ 3.0; 3.5; 0.75; -1.0 ];
  let s = Metrics.histogram_stats h in
  check_int "count" 4 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 6.25 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" (-1.0) s.Metrics.min_v;
  Alcotest.(check (float 1e-9)) "max" 3.5 s.Metrics.max_v;
  (* 3.0 and 3.5 share the (2,4] bucket; 0.75 lands in (0.5,1];
     -1.0 lands in the dedicated underflow bucket (upper bound 0). *)
  check_bool "power-of-two bucket (2,4] holds both" true
    (List.mem (4.0, 2) s.Metrics.buckets);
  check_bool "bucket (0.5,1]" true (List.mem (1.0, 1) s.Metrics.buckets);
  check_bool "underflow bucket" true (List.mem (0.0, 1) s.Metrics.buckets)

let test_metrics_disabled_noop () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test_obs.disabled_c" in
  let h = Metrics.histogram "test_obs.disabled_h" in
  Metrics.reset ();
  Metrics.incr ~by:100 c;
  Metrics.observe h 1.0;
  check_int "counter unchanged while disabled" 0 (Metrics.counter_value c);
  check_int "histogram unchanged while disabled" 0
    (Metrics.histogram_stats h).Metrics.count

(* A stage is timed by its span: with tracing off the span still feeds
   its histogram while metrics are on — on return and on raise, never a
   negative duration — with both off it records nothing, and with both
   on the histogram observes exactly the spans' durations. *)
let test_clock_durations () =
  let h = Metrics.histogram "test_obs.clock_h" in
  Metrics.set_enabled false;
  check_int "thunk result passes through" 3
    (Trace.with_span ~histogram:h "stage" (fun () -> 3));
  check_int "nothing recorded while disabled" 0
    (Metrics.histogram_stats h).Metrics.count;
  with_metrics @@ fun () ->
  Trace.with_span ~histogram:h "stage" ignore;
  (match Trace.with_span ~histogram:h "stage" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  let s = Metrics.histogram_stats h in
  check_int "observed on return and on raise" 2 s.Metrics.count;
  check_bool "never negative" true (s.Metrics.min_v >= 0.0);
  check_int "no span recorded with tracing off" 0 (List.length (Trace.roots ()));
  Metrics.reset ();
  with_tracing @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span ~histogram:h "inner" ignore;
      Trace.with_span ~histogram:h "inner" ignore);
  let s = Metrics.histogram_stats h in
  match Trace.roots () with
  | [ { Trace.children = [ a; b ]; _ } ] ->
      check_int "one observation per span" 2 s.Metrics.count;
      check_bool "sum is the spans' durations, bit for bit" true
        (Int64.bits_of_float s.Metrics.sum
        = Int64.bits_of_float (0.0 +. a.Trace.duration_s +. b.Trace.duration_s))
  | _ -> Alcotest.fail "expected one root with two children"

let test_snapshot_shape () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test_obs.snap_b" in
  let _zero = Metrics.counter "test_obs.snap_a" in
  Metrics.incr c;
  let snap = Metrics.snapshot () in
  let names = List.map fst snap.Metrics.counters in
  check_bool "zero counters included" true
    (List.mem "test_obs.snap_a" names);
  check_bool "counters sorted by name" true
    (names = List.sort compare names)

(* ------------------------------------------------------------------ *)
(* Sink: JSON shapes                                                   *)
(* ------------------------------------------------------------------ *)

(* A strict syntax check against the JSON grammar: it rejects raw
   control bytes inside strings, escapes JSON does not define, bare
   words and trailing garbage. *)
let json_valid s =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c = if peek () = Some c then incr pos else raise Exit in
  let ws () =
    while !pos < n && String.contains " \t\n\r" s.[!pos] do
      incr pos
    done
  in
  let word w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l
    else raise Exit
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then raise Exit
  in
  let rec string_body () =
    match peek () with
    | Some '"' -> incr pos
    | Some '\\' ->
        incr pos;
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
        | Some 'u' ->
            incr pos;
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
              | _ -> raise Exit
            done
        | _ -> raise Exit);
        string_body ()
    | Some c when Char.code c >= 0x20 ->
        incr pos;
        string_body ()
    | _ -> raise Exit
  in
  let rec value () =
    ws ();
    (match peek () with
    | Some '{' ->
        incr pos;
        ws ();
        if peek () = Some '}' then incr pos else members ()
    | Some '[' ->
        incr pos;
        ws ();
        if peek () = Some ']' then incr pos else elements ()
    | Some '"' ->
        incr pos;
        string_body ()
    | Some 't' -> word "true"
    | Some 'f' -> word "false"
    | Some 'n' -> word "null"
    | _ ->
        if peek () = Some '-' then incr pos;
        if peek () = Some '0' then incr pos else digits ();
        if peek () = Some '.' then begin
          incr pos;
          digits ()
        end;
        if peek () = Some 'e' || peek () = Some 'E' then begin
          incr pos;
          if peek () = Some '+' || peek () = Some '-' then incr pos;
          digits ()
        end);
    ws ()
  and members () =
    ws ();
    expect '"';
    string_body ();
    ws ();
    expect ':';
    value ();
    if peek () = Some ',' then begin
      incr pos;
      members ()
    end
    else expect '}'
  and elements () =
    value ();
    if peek () = Some ',' then begin
      incr pos;
      elements ()
    end
    else expect ']'
  in
  match value () with () -> !pos = n | exception Exit -> false

let test_json_valid_oracle () =
  List.iter
    (fun s -> check_bool ("valid: " ^ s) true (json_valid s))
    [ "{}"; "[]"; "null"; "-0.5e+3"; "{\"a\":[1,true,\"x\\n\\u0001\"]}" ];
  List.iter
    (fun s -> check_bool ("invalid: " ^ String.escaped s) false (json_valid s))
    [
      "";
      "{";
      "{\"a\":1,}";
      "\"a\\qb\"";
      "\"line\nbreak\"";
      "\"\001\"";
      "{} x";
      "01";
    ]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_spans_jsonl_shape () =
  with_tracing @@ fun () ->
  Trace.with_span "root" (fun () ->
      Trace.with_span "leaf" ~attrs:[ ("k", "v\"quoted\"") ] (fun () -> ()));
  let buf = Buffer.create 256 in
  Sink.spans_jsonl buf (Trace.roots ());
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per span" 2 (List.length lines);
  List.iter
    (fun l -> check_bool "each line is valid JSON" true (json_valid l))
    lines;
  let root_line = List.nth lines 0 and leaf_line = List.nth lines 1 in
  check_bool "root precedes its child (pre-order)" true
    (contains ~needle:"\"path\":\"root\"" root_line);
  check_bool "child path is slash-joined" true
    (contains ~needle:"\"path\":\"root/leaf\"" leaf_line);
  check_bool "attr values are escaped" true
    (contains ~needle:"\"k\":\"v\\\"quoted\\\"\"" leaf_line);
  List.iter
    (fun field ->
      check_bool (field ^ " present on every line") true
        (List.for_all (contains ~needle:("\"" ^ field ^ "\":")) lines))
    [ "path"; "name"; "start_s"; "duration_s"; "attrs" ]

let test_snapshot_json_shape () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test_obs.json_c" in
  let h = Metrics.histogram "test_obs.json_h" in
  Metrics.incr ~by:3 c;
  Metrics.observe h 2.0;
  let json = Sink.snapshot_json (Metrics.snapshot ()) in
  check_bool "valid JSON object" true (json_valid json);
  check_bool "counter exported with its value" true
    (contains ~needle:"\"test_obs.json_c\":3" json);
  List.iter
    (fun needle -> check_bool needle true (contains ~needle json))
    [
      "\"counters\":";
      "\"gauges\":";
      "\"histograms\":";
      "\"test_obs.json_h\":";
      "\"count\":1";
      "\"buckets\":";
    ]

(* ------------------------------------------------------------------ *)
(* Streaming engine metrics reach the same sink                        *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Quantile estimation from power-of-two buckets                       *)
(* ------------------------------------------------------------------ *)

let stats ~count ~sum ~min_v ~max_v buckets =
  { Metrics.count; sum; min_v; max_v; buckets }

let check_float = Alcotest.(check (float 1e-9))

let test_quantile_edges () =
  let empty = stats ~count:0 ~sum:0.0 ~min_v:infinity ~max_v:neg_infinity [] in
  check_bool "empty histogram has no quantiles" true
    (Float.is_nan (Metrics.quantile empty 0.5));
  let s = stats ~count:4 ~sum:3.0 ~min_v:0.6 ~max_v:0.95 [ (1.0, 4) ] in
  check_float "q=0 is the min" 0.6 (Metrics.quantile s 0.0);
  check_float "q=1 is the max" 0.95 (Metrics.quantile s 1.0);
  (* rank 2 of 4 in (0.5,1]: 0.5 + 0.5 * 2/4 *)
  check_float "median interpolates inside the bucket" 0.75
    (Metrics.quantile s 0.5);
  (* rank 3.96 interpolates to 0.995, past the recorded max — clamp *)
  check_float "estimate clamps to the recorded max" 0.95
    (Metrics.quantile s 0.99)

let test_quantile_multibucket () =
  let s =
    stats ~count:4 ~sum:7.7 ~min_v:0.8 ~max_v:3.9
      [ (1.0, 1); (2.0, 1); (4.0, 2) ]
  in
  (* rank 2 falls on the (1,2] bucket's last observation *)
  check_float "p50 from the middle bucket" 2.0 (Metrics.quantile s 0.5);
  (* rank 3 is halfway through the (2,4] bucket *)
  check_float "p75 from the top bucket" 3.0 (Metrics.quantile s 0.75);
  check_bool "quantiles are monotone in q" true
    (Metrics.quantile s 0.25 <= Metrics.quantile s 0.5
    && Metrics.quantile s 0.5 <= Metrics.quantile s 0.95)

let test_quantile_underflow () =
  let s =
    stats ~count:4 ~sum:(-4.0) ~min_v:(-3.0) ~max_v:0.9
      [ (0.0, 2); (1.0, 2) ]
  in
  (* the underflow bucket has no width to interpolate over *)
  check_float "underflow bucket pins to 0" 0.0 (Metrics.quantile s 0.25)

let test_quantile_observed () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test_obs.quant_h" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i *. 0.001)
  done;
  let s = Metrics.histogram_stats h in
  let p50 = Metrics.quantile s 0.5
  and p95 = Metrics.quantile s 0.95
  and p99 = Metrics.quantile s 0.99 in
  check_bool "estimates stay inside the observed range" true
    (s.Metrics.min_v <= p50 && p99 <= s.Metrics.max_v);
  check_bool "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  (* true p50 is 0.0505; bucket interpolation is within a factor of 2 *)
  check_bool "p50 within its bucket's factor-of-2 bound" true
    (p50 >= 0.0505 /. 2.0 && p50 <= 0.0505 *. 2.0)

(* ------------------------------------------------------------------ *)
(* Bounded root retention and draining                                 *)
(* ------------------------------------------------------------------ *)

let test_root_cap () =
  with_tracing @@ fun () ->
  Fun.protect ~finally:(fun () -> Trace.set_max_roots None) @@ fun () ->
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Trace.set_max_roots: non-positive cap") (fun () ->
      Trace.set_max_roots (Some 0));
  for i = 1 to 3 do
    Trace.with_span (Printf.sprintf "r%d" i) (fun () -> ())
  done;
  (* retroactive: the cap trims already-recorded roots, oldest first *)
  Trace.set_max_roots (Some 2);
  (match Trace.roots () with
  | [ a; b ] ->
      check_string "newest survive (1)" "r2" a.Trace.name;
      check_string "newest survive (2)" "r3" b.Trace.name
  | l -> Alcotest.failf "expected 2 roots, got %d" (List.length l));
  check_int "retroactive drop counted" 1 (Trace.dropped_roots ());
  (* steady state: each new root past the cap drops the oldest *)
  for i = 4 to 6 do
    Trace.with_span (Printf.sprintf "r%d" i) (fun () -> ())
  done;
  check_int "cap holds under new roots" 2 (List.length (Trace.roots ()));
  check_int "drops accumulate" 4 (Trace.dropped_roots ());
  match Trace.roots () with
  | [ a; b ] ->
      check_string "oldest evicted first (1)" "r5" a.Trace.name;
      check_string "oldest evicted first (2)" "r6" b.Trace.name
  | l -> Alcotest.failf "expected 2 roots, got %d" (List.length l)

let test_take_roots_drains () =
  with_tracing @@ fun () ->
  Trace.with_span "one" (fun () -> ());
  Trace.with_span "two" (fun () -> ());
  let drained = Trace.take_roots () in
  check_int "take returns everything, oldest first" 2 (List.length drained);
  check_string "order preserved" "one" (List.hd drained).Trace.name;
  check_int "list is emptied" 0 (List.length (Trace.roots ()));
  (* spans completed after a drain show up in the next one *)
  Trace.with_span "three" (fun () -> ());
  check_int "new roots accumulate again" 1 (List.length (Trace.take_roots ()))

let test_take_roots_leaves_open_spans () =
  with_tracing @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      (* inner closed under the still-open outer: not a root yet *)
      check_int "no finished roots while outer is open" 0
        (List.length (Trace.take_roots ())));
  match Trace.roots () with
  | [ outer ] ->
      check_string "outer completes intact after the drain" "outer"
        outer.Trace.name;
      check_int "child survived" 1 (List.length outer.Trace.children)
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

let test_event_line_golden () =
  check_string "stable JSONL shape"
    "{\"ts\":12.500000,\"event\":\"reselect\",\"tick\":\"40\"}"
    (Events.line ~ts:12.5 "reselect" [ ("tick", "40") ]);
  check_string "no attrs"
    "{\"ts\":0.000000,\"event\":\"source_eof\"}"
    (Events.line ~ts:0.0 "source_eof" [])

let event_escaping_prop =
  QCheck.Test.make ~count:500 ~name:"event lines are single balanced JSON"
    QCheck.(triple string string string)
    (fun (event, k, v) ->
      let l = Events.line ~ts:1.0 event [ (k, v) ] in
      json_valid l
      && String.for_all (fun c -> Char.code c >= 0x20) l)

let test_event_file_round_trip () =
  let tmp = Filename.temp_file "tomo_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  Events.configure (Some tmp);
  check_bool "configured" true (Events.enabled ());
  Events.emit ~ts:1.0 "alpha" [];
  Events.emit ~ts:2.0 "beta" [ ("k", "line\nbreak") ];
  Events.close ();
  Events.close ();
  (* idempotent *)
  check_bool "closed" true (not (Events.enabled ()));
  Events.emit ~ts:3.0 "dropped" [];
  (* no-op once closed *)
  let ic = open_in tmp in
  let lines = In_channel.input_lines ic in
  close_in ic;
  check_int "one line per event, none after close" 2 (List.length lines);
  List.iter
    (fun l -> check_bool "valid JSON line" true (json_valid l))
    lines;
  check_bool "events appear in emission order" true
    (contains ~needle:"\"event\":\"alpha\"" (List.nth lines 0)
    && contains ~needle:"\"event\":\"beta\"" (List.nth lines 1));
  check_bool "newline in attr value escaped" true
    (contains ~needle:"line\\nbreak" (List.nth lines 1))

(* Each reselect's event says whether the cache answered it, [cached],
   and whether with the selection its entry kept, [built]: on the toy
   model at window 2, path 0 congested in one interval moves the
   always-good set away and back, giving two misses, a first and a
   second hit on each answer, both rebuilt, and then a hit on the
   selection the second hit kept. *)
let test_reselect_events () =
  let tmp = Filename.temp_file "tomo_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Events.close ();
      try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  Events.configure (Some tmp);
  let model = Tomo.Toy.case1 () in
  let engine = Engine.create ~model ~window:2 () in
  List.iter
    (fun path0_good ->
      let col = Tomo_util.Bitset.create model.Tomo.Model.n_paths in
      Tomo_util.Bitset.set_all col;
      if not path0_good then Tomo_util.Bitset.clear col 0;
      ignore (Engine.ingest engine col))
    [
      true; true; true; false; true; true; false; true; true; false; true;
      true;
    ];
  Events.close ();
  let reselects =
    In_channel.with_open_bin tmp In_channel.input_lines
    |> List.filter (contains ~needle:"\"event\":\"reselect\"")
  in
  let answered line =
    let attr k = contains ~needle:(Printf.sprintf "\"%s\":\"true\"" k) line in
    (attr "cached", attr "built")
  in
  check_bool "miss, miss, two first hits, two second hits, kept hit" true
    (List.map answered reselects
    = [
        (false, false); (false, false); (true, false); (true, false);
        (true, false); (true, false); (true, true);
      ]);
  List.iter
    (fun line ->
      check_bool "every attribute present" true
        (List.for_all
           (fun k -> contains ~needle:(Printf.sprintf "\"%s\":" k) line)
           [ "tick"; "always_good"; "cached"; "built" ]))
    reselects

(* ------------------------------------------------------------------ *)
(* Flush: idempotent, atomic, drains exactly once                      *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_flush_idempotent_atomic () =
  let dir = Filename.temp_file "tomo_flush" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let tpath = Filename.concat dir "trace.jsonl" in
  let mpath = Filename.concat dir "metrics.json" in
  Fun.protect ~finally:(fun () ->
      Sink.init ~trace:Sink.Trace_off ();
      Metrics.set_enabled false;
      Trace.set_enabled false;
      Trace.reset ();
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  Sink.init ~trace:(Sink.Trace_jsonl tpath) ~metrics_out:mpath ();
  Metrics.set_enabled true;
  Trace.with_span "flush_once" (fun () -> ());
  Metrics.incr ~by:7 (Metrics.counter "test_obs.flush_c");
  Sink.flush ();
  Sink.flush ();
  (* span drained by the first flush, so the second writes nothing *)
  let trace_lines =
    String.split_on_char '\n' (read_file tpath)
    |> List.filter (fun l -> l <> "")
  in
  check_int "span emitted exactly once across two flushes" 1
    (List.length trace_lines);
  let mjson = read_file mpath in
  check_bool "metrics file is valid JSON" true (json_valid mjson);
  check_bool "counter present" true
    (contains ~needle:"\"test_obs.flush_c\":7" mjson);
  (* atomic write must not leave temp litter behind *)
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> "trace.jsonl" && f <> "metrics.json")
  in
  check_int "no temp files left by the atomic rename" 0
    (List.length leftovers)

(* A failed write leaves the target and its directory as they were: here
   the rename onto an existing directory fails after the temp file was
   written, and the temp file must not stay behind. *)
let test_write_atomic_failure_cleans_up () =
  let dir = Filename.temp_file "tomo_atomic" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let target = Filename.concat dir "target" in
  Unix.mkdir target 0o755;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir target with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  (match Sink.write_atomic target "payload" with
  | () -> Alcotest.fail "writing over a directory succeeded"
  | exception Sys_error _ -> ());
  check_bool "directory untouched" true (Sys.is_directory target);
  Alcotest.(check (list string))
    "no temp file left" [ "target" ]
    (Array.to_list (Sys.readdir dir));
  let file = Filename.concat dir "file" in
  Sink.write_atomic file "one";
  Sink.write_atomic file "two";
  check_string "rewrite replaces the content" "two" (read_file file);
  Alcotest.(check (list string))
    "only the targets remain" [ "file"; "target" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* Routing a file through [write_atomic] leaves it where and what
   [open_out] makes it: the same mode, written through a symlink (the
   link stays a link), and a pipe written in place, not replaced. *)
let test_write_atomic_like_open_out () =
  let dir = Filename.temp_file "tomo_atomic" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  close_out (open_out (path "plain"));
  Sink.write_atomic (path "atomic") "x";
  let perm f = (Unix.stat (path f)).Unix.st_perm in
  check_int "open_out's mode" (perm "plain") (perm "atomic");
  Unix.symlink "atomic" (path "link");
  Sink.write_atomic (path "link") "through";
  check_bool "the link stays a link" true
    ((Unix.lstat (path "link")).Unix.st_kind = Unix.S_LNK);
  check_string "its target holds the content" "through" (read_file (path "atomic"));
  Unix.mkfifo (path "fifo") 0o600;
  let got = ref "" in
  let reader =
    Thread.create
      (fun () ->
        got := In_channel.with_open_bin (path "fifo") In_channel.input_all)
      ()
  in
  Sink.write_atomic (path "fifo") "piped";
  (* checked before the join: a replaced pipe would leave the reader
     waiting for a writer forever *)
  check_bool "the pipe stays a pipe" true
    ((Unix.lstat (path "fifo")).Unix.st_kind = Unix.S_FIFO);
  Thread.join reader;
  check_string "the pipe's reader got the content" "piped" !got

(* ------------------------------------------------------------------ *)
(* Flusher: periodic background flushing                               *)
(* ------------------------------------------------------------------ *)

let test_flusher_periodic () =
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Flusher.start: non-positive period") (fun () ->
      ignore (Flusher.start ~period_s:0.0 ()));
  let mpath = Filename.temp_file "tomo_flusher" ".json" in
  Fun.protect ~finally:(fun () ->
      Sink.init ~trace:Sink.Trace_off ();
      Metrics.set_enabled false;
      try Sys.remove mpath with Sys_error _ -> ())
  @@ fun () ->
  Sink.init ~trace:Sink.Trace_off ~metrics_out:mpath ();
  Metrics.set_enabled true;
  let flushes = Metrics.counter "telemetry_flushes" in
  let before = Metrics.counter_value flushes in
  let f = Flusher.start ~period_s:0.02 () in
  Thread.delay 0.1;
  Flusher.stop f;
  Flusher.stop f;
  (* idempotent *)
  check_bool "flushed at least once on the cadence" true
    (Metrics.counter_value flushes > before);
  check_bool "metrics file written while running" true
    (json_valid (read_file mpath))

(* ------------------------------------------------------------------ *)
(* Exporter: Prometheus rendering and the HTTP round trip              *)
(* ------------------------------------------------------------------ *)

let test_prometheus_golden () =
  let snap =
    {
      Metrics.counters = [ ("stream_ticks", 60); ("test.odd-name", 2) ];
      gauges = [ ("stream_window_occupancy", 40.0) ];
      histograms =
        [
          ( "stream_stage_solve_s",
            stats ~count:3 ~sum:0.046875 ~min_v:0.01 ~max_v:0.02
              [ (0.015625, 2); (0.03125, 1) ] );
          ( "empty_h",
            stats ~count:0 ~sum:0.0 ~min_v:infinity ~max_v:neg_infinity [] );
        ];
    }
  in
  check_string "prometheus text exposition"
    "# TYPE stream_ticks counter\n\
     stream_ticks 60\n\
     # TYPE test_odd_name counter\n\
     test_odd_name 2\n\
     # TYPE stream_window_occupancy gauge\n\
     stream_window_occupancy 40\n\
     # TYPE stream_stage_solve_s histogram\n\
     stream_stage_solve_s_bucket{le=\"0.015625\"} 2\n\
     stream_stage_solve_s_bucket{le=\"0.03125\"} 3\n\
     stream_stage_solve_s_bucket{le=\"+Inf\"} 3\n\
     stream_stage_solve_s_sum 0.046875\n\
     stream_stage_solve_s_count 3\n\
     # TYPE empty_h histogram\n\
     empty_h_bucket{le=\"+Inf\"} 0\n\
     empty_h_sum 0\n\
     empty_h_count 0\n"
    (Exporter.prometheus_of_snapshot snap)

let test_listen_of_string () =
  let ok l = Ok l in
  check_bool ":port is localhost TCP" true
    (Exporter.listen_of_string ":9100" = ok (Exporter.Tcp ("127.0.0.1", 9100)));
  check_bool "bare port is localhost TCP" true
    (Exporter.listen_of_string "9100" = ok (Exporter.Tcp ("127.0.0.1", 9100)));
  check_bool "host:port keeps the host" true
    (Exporter.listen_of_string "localhost:9100"
    = ok (Exporter.Tcp ("localhost", 9100)));
  check_bool "a path is a unix socket" true
    (Exporter.listen_of_string "/tmp/foo.sock"
    = ok (Exporter.Unix_sock "/tmp/foo.sock"));
  check_bool "relative path too" true
    (Exporter.listen_of_string "telemetry.sock"
    = ok (Exporter.Unix_sock "telemetry.sock"));
  check_bool "empty is an error" true
    (match Exporter.listen_of_string "" with Error _ -> true | Ok _ -> false);
  check_bool "out-of-range port is an error" true
    (match Exporter.listen_of_string ":99999" with
    | Error _ -> true
    | Ok _ -> false);
  (* An all-digit address is always a port, never a socket file. *)
  List.iter
    (fun s ->
      check_bool (s ^ " is a bad port") true
        (Exporter.listen_of_string s
        = Error (Printf.sprintf "bad port in listen address %S" s)))
    [ "99999999"; "0"; "65536"; "99999999999999999999" ];
  check_bool "65535 is the last port" true
    (Exporter.listen_of_string "65535"
    = ok (Exporter.Tcp ("127.0.0.1", 65535)))

(* A failed bind or connect names its address in the Unix_error, so the
   CLI's one-line diagnostic can say which socket. *)
let test_socket_failure_names_address () =
  let path = "/nonexistent-tomo-dir/tomo.sock" in
  let names what f =
    match f () with
    | _ -> Alcotest.failf "%s on %s succeeded" what path
    | exception Unix.Unix_error (Unix.ENOENT, fn, arg) ->
        check_string (what ^ " call") what fn;
        check_string (what ^ " names the address") path arg
  in
  names "bind" (fun () ->
      Exporter.stop (Exporter.start (Exporter.Unix_sock path)));
  names "connect" (fun () ->
      Unix.close (Exporter.connect (Exporter.Unix_sock path)))

let http_get sock_path path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock_path);
  let req = "GET " ^ path ^ " HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    let n = Unix.read fd chunk 0 1024 in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  (try go () with Unix.Unix_error _ -> ());
  Buffer.contents buf

let test_exporter_round_trip () =
  with_metrics @@ fun () ->
  let sock = Filename.temp_file "tomo_exp" ".sock" in
  Sys.remove sock;
  let exp =
    Exporter.start
      ~health:(fun () -> "{\"status\":\"ok\",\"ticks\":7}")
      (Exporter.Unix_sock sock)
  in
  Fun.protect ~finally:(fun () -> Exporter.stop exp) @@ fun () ->
  let h = Metrics.histogram "test_obs.exp_h" in
  Metrics.observe h 0.25;
  let resp = http_get sock "/metrics" in
  check_bool "scrape succeeds" true (contains ~needle:"200 OK" resp);
  (* 0.25 lands in the [0.25, 0.5) bucket, upper bound 0.5 *)
  check_bool "histogram in prometheus form" true
    (contains ~needle:"test_obs_exp_h_bucket{le=\"0.5\"} 1" resp);
  check_bool "scrapes count themselves" true
    (contains ~needle:"telemetry_scrapes" resp);
  let health = http_get sock "/healthz" in
  check_bool "health callback body passes through" true
    (contains ~needle:"\"ticks\":7" health);
  check_bool "health is JSON" true
    (contains ~needle:"application/json" health);
  let missing = http_get sock "/nope" in
  check_bool "unknown path is 404" true (contains ~needle:"404" missing);
  let status = http_get sock "/status" in
  check_bool "no status view configured means 404" true
    (contains ~needle:"404" status);
  Exporter.stop exp;
  check_bool "socket file removed on stop" true (not (Sys.file_exists sock));
  Exporter.stop exp (* idempotent *)

(* Without a [~health] callback — as [serve --ingest] runs it — /healthz
   serves the exporter's default body, which must stay valid JSON
   whatever the last sink error holds (a path with a backslash, a
   newline, a control byte). *)
let test_default_health_escapes_error () =
  let sock = Filename.temp_file "tomo_exp" ".sock" in
  Sys.remove sock;
  let exp = Exporter.start (Exporter.Unix_sock sock) in
  Fun.protect ~finally:(fun () -> Exporter.stop exp) @@ fun () ->
  let err = "cannot write \"C:\\m.json\":\nline two \x01" in
  Sink.record_error err;
  let resp = http_get sock "/healthz" in
  let body =
    match String.index_opt resp '{' with
    | Some i -> String.sub resp i (String.length resp - i)
    | None -> Alcotest.fail "no JSON body"
  in
  check_bool "200" true (contains ~needle:"200 OK" resp);
  check_bool "body is valid JSON" true (json_valid body);
  check_bool "error escaped once, in full" true
    (contains ~needle:("\"last_error\":" ^ Tomo_obs.Json.quote err ^ "}") body);
  check_bool "uptime reported" true (contains ~needle:"\"uptime_s\":" body)

(* ------------------------------------------------------------------ *)
(* Engine status view                                                  *)
(* ------------------------------------------------------------------ *)

let test_status_json_golden () =
  let st =
    {
      Engine.st_ticks = 60;
      st_occupancy = 40;
      st_capacity = 40;
      st_full = true;
      st_estimates = 21;
      st_reselects = 12;
      st_selection_cache =
        {
          Engine.hits = 2;
          misses = 10;
          entries = 8;
          built = 1;
          answer_bytes = 1432;
        };
      st_last =
        Some { Engine.at_tick = 60; rows = 565; vars = 595; nullity = 30 };
    }
  in
  check_string "full engine"
    "{\"status\":\"ok\",\"ticks\":60,\"window\":{\"occupancy\":40,\
     \"capacity\":40,\"full\":true},\"estimates\":21,\"reselects\":12,\
     \"selection_cache\":{\"hits\":2,\"misses\":10,\"entries\":8,\
     \"built\":1,\"answer_bytes\":1432},\
     \"last_estimate\":{\"tick\":60,\"rows\":565,\"vars\":595,\
     \"nullity\":30},\
     \"uptime_s\":1.500,\"snapshot_age_s\":0.250,\"last_error\":null}"
    (Engine.status_json ~uptime_s:1.5 ~snapshot_age_s:0.25 st);
  let warming =
    {
      st with
      Engine.st_ticks = 12;
      st_occupancy = 12;
      st_full = false;
      st_estimates = 0;
      st_last = None;
    }
  in
  check_string "warming up, with a sink error"
    "{\"status\":\"warming_up\",\"ticks\":12,\"window\":{\"occupancy\":12,\
     \"capacity\":40,\"full\":false},\"estimates\":0,\"reselects\":12,\
     \"selection_cache\":{\"hits\":2,\"misses\":10,\"entries\":8,\
     \"built\":1,\"answer_bytes\":1432},\
     \"last_estimate\":null,\"snapshot_age_s\":null,\
     \"last_error\":\"boom \\\"quoted\\\"\"}"
    (Engine.status_json ~last_error:"boom \"quoted\"" warming)

let test_engine_status () =
  let model = Tomo.Toy.case1 () in
  let engine = Engine.create ~model ~window:2 () in
  let st0 = Engine.status engine in
  check_bool "fresh engine is warming up" true (not st0.Engine.st_full);
  check_bool "no estimate yet" true (st0.Engine.st_last = None);
  let last = ref None in
  for _ = 1 to 3 do
    let col = Tomo_util.Bitset.create model.Tomo.Model.n_paths in
    Tomo_util.Bitset.set_all col;
    last := Engine.ingest engine col
  done;
  let st = Engine.status engine in
  check_int "ticks counted" 3 st.Engine.st_ticks;
  check_int "occupancy is the window fill" 2 st.Engine.st_occupancy;
  check_bool "full once warmed" true st.Engine.st_full;
  check_int "estimates counted" 2 st.Engine.st_estimates;
  match (st.Engine.st_last, !last) with
  | Some l, Some est ->
      let r = est.Engine.result in
      check_int "last estimate stamped with its tick" 3 l.Engine.at_tick;
      check_int "rows recorded" r.Tomo.Pc_result.n_rows l.Engine.rows;
      check_int "vars recorded" r.Tomo.Pc_result.n_vars l.Engine.vars;
      check_int "nullity recorded"
        est.Engine.engine.Tomo.Prob_engine.selection.Tomo.Algorithm1.nullity
        l.Engine.nullity;
      let c = st.Engine.st_selection_cache in
      check_int "one selection, a miss" 1 c.Engine.misses;
      check_int "no hit" 0 c.Engine.hits;
      check_int "its answer cached" 1 c.Engine.entries;
      check_int "not yet rebuilt" 0 c.Engine.built;
      let selection =
        est.Engine.engine.Tomo.Prob_engine.selection
      in
      check_int "its key's and answer's bytes"
        (((model.Tomo.Model.n_paths + 7) / 8)
        + Tomo.Algorithm1.decision_bytes (Tomo.Algorithm1.decision selection))
        c.Engine.answer_bytes;
      let one_entry = c.Engine.answer_bytes in
      (* Path 0 congested in one interval leaves the always-good set
         and comes back as the interval leaves the window of 2: each
         return to a set is a hit, and the second hit on an answer
         keeps its rebuild's selection, the first none. *)
      let cache_after ~path0_good =
        let col = Tomo_util.Bitset.create model.Tomo.Model.n_paths in
        Tomo_util.Bitset.set_all col;
        if not path0_good then Tomo_util.Bitset.clear col 0;
        ignore (Engine.ingest engine col);
        let c = (Engine.status engine).Engine.st_selection_cache in
        ( (c.Engine.hits, c.Engine.misses, c.Engine.entries, c.Engine.built),
          c.Engine.answer_bytes )
      in
      let two_entries = ref 0 in
      List.iter
        (fun (path0_good, expected, what) ->
          let counts, bytes = cache_after ~path0_good in
          check_bool what true (counts = expected);
          (* Only a miss adds bytes, and a hit none. *)
          if !two_entries = 0 then begin
            check_bool "a second answer adds bytes" true (bytes > one_entry);
            two_entries := bytes
          end
          else check_int (what ^ ": answer bytes") !two_entries bytes)
        [
          (false, (0, 2, 2, 0), "a new set: a miss");
          (true, (0, 2, 2, 0), "the same set: no reselect");
          (true, (1, 2, 2, 0), "back to the first set: a first hit");
          (false, (2, 2, 2, 0), "back to the second set: a first hit");
          (true, (2, 2, 2, 0), "the same set: no reselect");
          (true, (3, 2, 2, 1), "a second hit keeps its selection");
          (false, (4, 2, 2, 2), "so does the other's");
          (true, (4, 2, 2, 2), "the same set: no reselect");
          (true, (5, 2, 2, 2), "a hit on a kept selection keeps it");
        ]
  | _ -> Alcotest.fail "no last estimate after two estimates"

let test_stream_metrics_exported () =
  with_metrics @@ fun () ->
  let model = Tomo.Toy.case1 () in
  let engine = Tomo_stream.Engine.create ~model ~window:2 () in
  for _ = 1 to 3 do
    let col = Tomo_util.Bitset.create model.Tomo.Model.n_paths in
    Tomo_util.Bitset.set_all col;
    ignore (Tomo_stream.Engine.ingest engine col)
  done;
  let json = Sink.snapshot_json (Metrics.snapshot ()) in
  check_bool "valid JSON" true (json_valid json);
  (* counters count what happened: 3 ingests, 2 full-window estimates *)
  check_bool "stream_ticks counted" true
    (contains ~needle:"\"stream_ticks\":3" json);
  check_bool "stream_estimates counted" true
    (contains ~needle:"\"stream_estimates\":2" json);
  (* window gauges reflect the steady state *)
  check_bool "occupancy gauge" true
    (contains ~needle:"\"stream_window_occupancy\":2" json);
  check_bool "capacity gauge" true
    (contains ~needle:"\"stream_window_capacity\":2" json);
  (* latency histograms observed at least once, including the per-tick
     stage profile behind the exporter's /metrics view *)
  List.iter
    (fun h -> check_bool h true (contains ~needle:("\"" ^ h ^ "\":") json))
    [
      "stream_tick_s";
      "stream_solve_s";
      "stream_stage_ingest_s";
      "stream_stage_solve_s";
      "stream_stage_reselect_s";
    ]

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "nesting and result passthrough" `Quick
            test_span_nesting;
          Alcotest.test_case "timing monotonicity" `Quick
            test_span_timing_monotonic;
          Alcotest.test_case "attributes" `Quick test_span_attrs;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safe;
          Alcotest.test_case "disabled mode records nothing" `Quick
            test_span_disabled_noop;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter arithmetic and interning" `Quick
            test_counter_arithmetic;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch;
          Alcotest.test_case "gauges" `Quick test_gauge;
          Alcotest.test_case "histogram stats and buckets" `Quick
            test_histogram;
          Alcotest.test_case "disabled mode records nothing" `Quick
            test_metrics_disabled_noop;
          Alcotest.test_case "monotonic stage durations" `Quick
            test_clock_durations;
          Alcotest.test_case "snapshot shape" `Quick test_snapshot_shape;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
          Alcotest.test_case "quantile across buckets" `Quick
            test_quantile_multibucket;
          Alcotest.test_case "quantile underflow bucket" `Quick
            test_quantile_underflow;
          Alcotest.test_case "quantile on observed data" `Quick
            test_quantile_observed;
        ] );
      ( "sink",
        [
          Alcotest.test_case "spans as JSON lines" `Quick
            test_spans_jsonl_shape;
          Alcotest.test_case "metrics snapshot as JSON" `Quick
            test_snapshot_json_shape;
          Alcotest.test_case "streaming engine metrics exported" `Quick
            test_stream_metrics_exported;
          Alcotest.test_case "flush is idempotent and atomic" `Quick
            test_flush_idempotent_atomic;
          Alcotest.test_case "failed atomic write leaves no temp file" `Quick
            test_write_atomic_failure_cleans_up;
          Alcotest.test_case "atomic write keeps open_out's target" `Quick
            test_write_atomic_like_open_out;
          Alcotest.test_case "strict JSON check accepts and rejects" `Quick
            test_json_valid_oracle;
        ] );
      ( "trace retention",
        [
          Alcotest.test_case "max_roots caps and counts drops" `Quick
            test_root_cap;
          Alcotest.test_case "take_roots drains exactly once" `Quick
            test_take_roots_drains;
          Alcotest.test_case "take_roots leaves open spans" `Quick
            test_take_roots_leaves_open_spans;
        ] );
      ( "events",
        [
          Alcotest.test_case "line shape is stable" `Quick
            test_event_line_golden;
          QCheck_alcotest.to_alcotest event_escaping_prop;
          Alcotest.test_case "file round trip" `Quick
            test_event_file_round_trip;
          Alcotest.test_case "reselect: cached and built" `Quick
            test_reselect_events;
        ] );
      ( "exporter",
        [
          Alcotest.test_case "prometheus text golden" `Quick
            test_prometheus_golden;
          Alcotest.test_case "listen address parsing" `Quick
            test_listen_of_string;
          Alcotest.test_case "failed bind or connect names the address"
            `Quick test_socket_failure_names_address;
          Alcotest.test_case "HTTP round trip over a unix socket" `Quick
            test_exporter_round_trip;
          Alcotest.test_case "default /healthz is valid JSON" `Quick
            test_default_health_escapes_error;
          Alcotest.test_case "periodic flusher" `Quick test_flusher_periodic;
        ] );
      ( "engine status",
        [
          Alcotest.test_case "status_json golden" `Quick
            test_status_json_golden;
          Alcotest.test_case "status tracks the engine" `Quick
            test_engine_status;
        ] );
    ]
