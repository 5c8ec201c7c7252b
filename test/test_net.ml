(* Tests for the network ingestion plane: the length-prefixed frame
   codec (decode ∘ encode = id under any fragmentation, torn frames at
   every byte boundary, oversized/zero-length rejection) and the Hub
   end-to-end over real sockets — a socket-fed peer's report must be
   byte-identical to driving the engine directly, a hub killed by its
   tick budget and restarted from snapshots must be bit-identical to an
   uninterrupted run, and misbehaving peers (garbage frames, half-open
   connections, queue overflow) must be dropped without perturbing the
   others. *)

module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Engine = Tomo_stream.Engine
module Frame = Tomo_net.Frame
module Hub = Tomo_net.Hub
module Exporter = Tomo_obs.Exporter
module Metrics = Tomo_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let drain_frames dec =
  let rec go acc =
    match Frame.next dec with None -> List.rev acc | Some f -> go (f :: acc)
  in
  go []

let wire_of payloads =
  let b = Buffer.create 256 in
  List.iter (Frame.encode_into b) payloads;
  Buffer.contents b

let payloads_gen =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (string_size (int_range 1 40) ~gen:(char_range '\000' '\255')))

let payloads_arb =
  QCheck.make ~print:(fun ps -> String.concat "|" (List.map String.escaped ps))
    payloads_gen

(* decode(encode(xs)) = xs when the whole wire arrives in one read. *)
let frame_roundtrip_qcheck =
  QCheck.Test.make ~count:200 ~name:"frame roundtrip, one read"
    payloads_arb
    (fun payloads ->
      let dec = Frame.create () in
      Frame.feed_string dec (wire_of payloads);
      drain_frames dec = payloads && Frame.at_boundary dec)

(* ... and when the wire is torn at every byte boundary: for each split
   point, feeding the two halves yields the same frames. *)
let frame_torn_qcheck =
  QCheck.Test.make ~count:50 ~name:"frame roundtrip, torn at every byte"
    payloads_arb
    (fun payloads ->
      let wire = wire_of payloads in
      let ok = ref true in
      for cut = 0 to String.length wire do
        let dec = Frame.create () in
        Frame.feed_string dec (String.sub wire 0 cut);
        Frame.feed_string dec
          (String.sub wire cut (String.length wire - cut));
        if drain_frames dec <> payloads || not (Frame.at_boundary dec) then
          ok := false
      done;
      !ok)

(* ... and byte-at-a-time (maximal fragmentation). *)
let frame_bytewise_qcheck =
  QCheck.Test.make ~count:100 ~name:"frame roundtrip, byte at a time"
    payloads_arb
    (fun payloads ->
      let wire = wire_of payloads in
      let dec = Frame.create () in
      String.iter (fun c -> Frame.feed_string dec (String.make 1 c)) wire;
      drain_frames dec = payloads && Frame.at_boundary dec)

let test_frame_rejections () =
  (* encode refuses empty and oversized payloads *)
  (match Frame.encode "" with
  | _ -> Alcotest.fail "empty payload accepted"
  | exception Invalid_argument _ -> ());
  (match Frame.encode ~max_payload:4 "12345" with
  | _ -> Alcotest.fail "oversized payload accepted"
  | exception Invalid_argument _ -> ());
  (* a header announcing more than the cap poisons the decoder *)
  let dec = Frame.create ~max_payload:16 () in
  let huge = "\x00\x00\x01\x00" (* 256 bytes *) in
  (match Frame.feed_string dec huge with
  | _ -> Alcotest.fail "oversized frame accepted"
  | exception Failure msg ->
      check_bool "names the cap" true (contains ~needle:"exceeds cap" msg));
  (* ... and stays poisoned: the peer cannot resynchronize *)
  (match Frame.feed_string dec (Frame.encode "ok") with
  | _ -> Alcotest.fail "poisoned decoder recovered"
  | exception Failure _ -> ());
  (* a zero-length frame is a protocol error too *)
  let dec = Frame.create () in
  (match Frame.feed_string dec "\x00\x00\x00\x00" with
  | _ -> Alcotest.fail "zero-length frame accepted"
  | exception Failure _ -> ());
  (* a clean stream ends at a boundary; a torn one does not *)
  let dec = Frame.create () in
  Frame.feed_string dec (Frame.encode "hello");
  check_bool "boundary after full frame" true (Frame.at_boundary dec);
  Frame.feed_string dec "\x00\x00";
  check_bool "mid-header is not a boundary" false (Frame.at_boundary dec);
  check_int "frames_decoded" 1 (Frame.frames_decoded dec);
  check_int "bytes_fed" (String.length (Frame.encode "hello") + 2)
    (Frame.bytes_fed dec)

(* ------------------------------------------------------------------ *)
(* Shared scaffolding for the hub tests                                *)
(* ------------------------------------------------------------------ *)

let shuffled_prefix rng n k =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

let random_model rng =
  let n_links = 4 + Rng.int rng 6 in
  let n_paths = 3 + Rng.int rng 5 in
  let paths =
    Array.init n_paths (fun _ ->
        let k = 1 + Rng.int rng (min 4 n_links) in
        shuffled_prefix rng n_links k)
  in
  let sets = ref [] and i = ref 0 in
  while !i < n_links do
    let k = min (n_links - !i) (1 + Rng.int rng 3) in
    sets := Array.init k (fun j -> !i + j) :: !sets;
    i := !i + k
  done;
  Tomo.Model.make ~n_links ~paths
    ~corr_sets:(Array.of_list (List.rev !sets))

let random_column rng n_paths =
  let b = Bitset.create n_paths in
  for p = 0 to n_paths - 1 do
    if Rng.bool rng ~p:0.7 then Bitset.set b p
  done;
  b

let bits_of col n_paths =
  String.init n_paths (fun p -> if Bitset.get col p then '1' else '0')

(* The framed records a well-behaved peer sends for [cols]. *)
let trace_frames ?peer ~n_paths cols =
  let records = ref [] in
  Option.iter (fun name -> records := [ "peer " ^ name ]) peer;
  records := "tomo-trace v1" :: !records;
  records := Printf.sprintf "paths %d" n_paths :: !records;
  Array.iteri
    (fun i col ->
      records :=
        Printf.sprintf "tick %d %s" i (bits_of col n_paths) :: !records)
    cols;
  wire_of (List.rev !records)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "tomo_net_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let write_all fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* A peer over a socketpair: hands the server end to [attach], writes
   [wire] from a client thread, then half-closes. *)
let spawn_peer ?(close_after = true) hub wire =
  let server, client =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Hub.attach hub server;
  let th =
    Thread.create
      (fun () ->
        (try write_all client wire
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        if close_after then
          try Unix.close client with Unix.Unix_error _ -> ())
      ()
  in
  (th, client)

let wait_for ?(timeout = 20.) pred what =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The reference: drive an engine directly over the same columns. *)
let expected_report ~model ~window cols =
  let engine = Engine.create ~model ~window () in
  let last =
    Array.fold_left
      (fun last col ->
        match Engine.ingest engine (Bitset.copy col) with
        | Some e -> Some e
        | None -> last)
      None cols
  in
  Engine.report_to_string ~window (Option.get last)

(* ------------------------------------------------------------------ *)
(* Hub: socket-fed == direct, per-peer isolation                       *)
(* ------------------------------------------------------------------ *)

let test_hub_matches_direct () =
  let rng = Rng.create 11 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 4 and total = 12 in
  let cols_a = Array.init total (fun _ -> random_column rng n_paths) in
  let cols_b = Array.init total (fun _ -> random_column rng n_paths) in
  with_tmpdir (fun dir ->
      let hub = Hub.create ~model ~window ~report_dir:dir () in
      let runner = Thread.create Hub.run hub in
      let th_a, _ =
        spawn_peer hub (trace_frames ~peer:"alpha" ~n_paths cols_a)
      in
      let th_b, _ =
        spawn_peer hub (trace_frames ~peer:"beta" ~n_paths cols_b)
      in
      wait_for
        (fun () -> (Hub.stats hub).Hub.reports_written = 2)
        "both reports";
      Hub.request_stop hub;
      Thread.join runner;
      Thread.join th_a;
      Thread.join th_b;
      let s = Hub.stats hub in
      check_int "ticks" (2 * total) s.Hub.ticks_ingested;
      check_int "dropped" 0 s.Hub.peers_dropped;
      Alcotest.(check string)
        "alpha socket report == direct engine report"
        (expected_report ~model ~window cols_a)
        (read_file (Filename.concat dir "alpha.report"));
      Alcotest.(check string)
        "beta socket report == direct engine report"
        (expected_report ~model ~window cols_b)
        (read_file (Filename.concat dir "beta.report")))

(* Kill the hub mid-ingest via its tick budget, restart it from the
   snapshot directory, re-send the full trace: the final report must be
   byte-identical to an uninterrupted run. *)
let test_hub_kill_restore () =
  let rng = Rng.create 23 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 4 and total = 14 and cut = 9 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let wire = trace_frames ~peer:"gamma" ~n_paths cols in
  with_tmpdir (fun dir ->
      (* run 1: cut after [cut] ticks — Hub.run returns on its own *)
      let hub1 =
        Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir
          ~max_ticks:cut ()
      in
      let runner1 = Thread.create Hub.run hub1 in
      let th1, _ = spawn_peer hub1 wire in
      Thread.join runner1;
      Thread.join th1;
      let s1 = Hub.stats hub1 in
      check_int "cut at the budget" cut s1.Hub.ticks_ingested;
      check_int "no report from the cut run" 0 s1.Hub.reports_written;
      check_bool "snapshot exists" true
        (Sys.file_exists (Filename.concat dir "gamma.snap"));
      (* run 2: restore, re-send everything (skip fast-forwards) *)
      let hub2 =
        Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir ()
      in
      let runner2 = Thread.create Hub.run hub2 in
      let th2, _ = spawn_peer hub2 wire in
      wait_for
        (fun () -> (Hub.stats hub2).Hub.reports_written = 1)
        "resumed report";
      Hub.request_stop hub2;
      Thread.join runner2;
      Thread.join th2;
      check_int "only the tail was re-ingested" (total - cut)
        (Hub.stats hub2).Hub.ticks_ingested;
      Alcotest.(check string)
        "kill+restore report == uninterrupted report"
        (expected_report ~model ~window cols)
        (read_file (Filename.concat dir "gamma.report")))

(* Every snapshot the hub saves is timed as the [stream.snapshot] stage:
   one [stream_stage_snapshot_s] observation per [stream_snapshots_saved]. *)
let test_hub_snapshots_timed () =
  let rng = Rng.create 41 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 3 and total = 10 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  with_tmpdir (fun dir ->
      let hub =
        Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir
          ~snapshot_every:2 ()
      in
      let runner = Thread.create Hub.run hub in
      let th, _ = spawn_peer hub (trace_frames ~peer:"delta" ~n_paths cols) in
      wait_for (fun () -> (Hub.stats hub).Hub.reports_written = 1) "report";
      Hub.request_stop hub;
      Thread.join runner;
      Thread.join th;
      let saved = Metrics.counter_value (Metrics.counter "stream_snapshots_saved") in
      check_int "every 2nd of 10 ticks, and once at the end" 6 saved;
      check_int "one timed snapshot stage per save" saved
        (Metrics.histogram_stats (Metrics.histogram "stream_stage_snapshot_s"))
          .Metrics.count)

(* A peer sending a well-framed but garbage record is dropped; a peer
   racing it on another socket is untouched. *)
let test_hub_garbage_peer_isolated () =
  let rng = Rng.create 37 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 3 and total = 8 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  with_tmpdir (fun dir ->
      let hub = Hub.create ~model ~window ~report_dir:dir () in
      let runner = Thread.create Hub.run hub in
      let th_bad, _ =
        spawn_peer hub
          (wire_of [ "peer evil"; "tomo-trace v1"; "paths nope" ])
      in
      let th_ugly, _ =
        (* raw garbage: a frame header announcing 2 GiB *)
        spawn_peer hub "\x7f\xff\xff\xff overflow!"
      in
      let th_good, _ =
        spawn_peer hub (trace_frames ~peer:"good" ~n_paths cols)
      in
      wait_for
        (fun () ->
          let s = Hub.stats hub in
          s.Hub.reports_written = 1 && s.Hub.peers_dropped = 2)
        "good report + two drops";
      Hub.request_stop hub;
      Thread.join runner;
      List.iter Thread.join [ th_bad; th_ugly; th_good ];
      Alcotest.(check string)
        "good peer unperturbed"
        (expected_report ~model ~window cols)
        (read_file (Filename.concat dir "good.report"));
      check_bool "no report for the garbage peer" false
        (Sys.file_exists (Filename.concat dir "evil.report")))

(* A half-open peer (connects, sends a prefix, then goes silent) is
   reaped by the idle timeout. *)
let test_hub_idle_timeout () =
  let rng = Rng.create 41 in
  let model = random_model rng in
  let hub = Hub.create ~model ~window:3 ~idle_timeout:0.2 () in
  let runner = Thread.create Hub.run hub in
  let th, client =
    spawn_peer ~close_after:false hub
      (wire_of [ "peer sleepy"; "tomo-trace v1" ])
  in
  wait_for
    (fun () -> (Hub.stats hub).Hub.peers_dropped = 1)
    "idle peer dropped";
  Hub.request_stop hub;
  Thread.join runner;
  Thread.join th;
  (try Unix.close client with Unix.Unix_error _ -> ());
  check_int "dropped" 1 (Hub.stats hub).Hub.peers_dropped

(* With the drop policy and no draining (the hub loop never runs), a
   blaster overflows its bounded queue and is disconnected. *)
let test_hub_overflow_drop_policy () =
  let rng = Rng.create 43 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let total = 50 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let hub =
    Hub.create ~model ~window:3 ~queue_capacity:2 ~policy:Hub.Drop_peer ()
  in
  let th, _ = spawn_peer hub (trace_frames ~peer:"blaster" ~n_paths cols) in
  wait_for
    (fun () -> (Hub.stats hub).Hub.peers_dropped = 1)
    "overflowing peer dropped";
  Thread.join th;
  (* a post-hoc run must still shut down cleanly *)
  Hub.request_stop hub;
  Hub.run hub;
  check_int "dropped" 1 (Hub.stats hub).Hub.peers_dropped

(* ------------------------------------------------------------------ *)
(* The accept loop ingestion shares with telemetry                     *)
(* ------------------------------------------------------------------ *)

let serve_ingest path ~on_accept =
  Exporter.serve ~events:"ingest" ~failure:"ingest accept failed"
    (Exporter.Unix_sock path) ~on_accept

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* Everything the other end sends until it closes. *)
let read_to_eof fd =
  let b = Buffer.create 256 and chunk = Bytes.create 1024 in
  let rec go () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) go;
  Buffer.contents b

let test_listener_accepts () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "ingest.sock" in
      let accepted = ref 0 in
      let m = Mutex.create () in
      let listener =
        serve_ingest path ~on_accept:(fun fd ->
            Mutex.lock m;
            incr accepted;
            Mutex.unlock m;
            Unix.close fd)
      in
      Unix.close (connect path);
      Unix.close (connect path);
      wait_for
        (fun () ->
          Mutex.lock m;
          let n = !accepted in
          Mutex.unlock m;
          n = 2)
        "two accepts";
      Exporter.stop listener;
      check_bool "socket file unlinked" false (Sys.file_exists path))

(* The telemetry server and an ingest listener side by side, each one
   [Exporter.serve] loop: both emit their event pairs, a connection the
   ingest callback refuses is closed and the refusal recorded, and
   [stop] unlinks both sockets. *)
let test_accept_loops_side_by_side () =
  with_tmpdir (fun dir ->
      let log = Filename.concat dir "events.jsonl" in
      Tomo_obs.Events.configure (Some log);
      Fun.protect ~finally:(fun () -> Tomo_obs.Events.configure None)
      @@ fun () ->
      let tel = Filename.concat dir "telemetry.sock"
      and ing = Filename.concat dir "ingest.sock" in
      let exporter = Exporter.start (Exporter.Unix_sock tel) in
      let listener =
        serve_ingest ing ~on_accept:(fun _ -> failwith "refused peer")
      in
      let fd = connect tel in
      write_all fd "GET /healthz HTTP/1.0\r\n\r\n";
      check_bool "telemetry answers" true
        (contains ~needle:"200 OK" (read_to_eof fd));
      Alcotest.(check string)
        "refused connection closed" "" (read_to_eof (connect ing));
      check_bool "refusal recorded" true
        (match Tomo_obs.Sink.last_error () with
        | Some e -> contains ~needle:"ingest accept failed: " e
                    && contains ~needle:"refused peer" e
        | None -> false);
      Exporter.stop listener;
      Exporter.stop exporter;
      check_bool "ingest socket unlinked" false (Sys.file_exists ing);
      check_bool "telemetry socket unlinked" false (Sys.file_exists tel);
      let events = read_file log in
      List.iter
        (fun ev ->
          check_bool ev true
            (contains ~needle:(Printf.sprintf "\"event\":\"%s\"" ev) events))
        [
          "exporter_listening";
          "ingest_listening";
          "ingest_stopped";
          "exporter_stopped";
        ])

(* ------------------------------------------------------------------ *)
(* Input robustness: every rejection of a mutated input is a Failure   *)
(* ------------------------------------------------------------------ *)

(* One mutation of a valid input: a byte set to any value, a truncation,
   or a 20-digit number or [max_int] written over the input from some
   offset on, or inserted there. *)
let mutate (kind, pos, byte, wide) s =
  let n = String.length s in
  let at = if n = 0 then 0 else pos mod (n + 1) in
  let number = if wide then "99999999999999999999" else string_of_int max_int in
  match kind with
  | 0 when n > 0 ->
      String.mapi (fun i c -> if i = pos mod n then Char.chr byte else c) s
  | 1 -> String.sub s 0 at
  | 2 ->
      let rest = String.sub s at (n - at) in
      let k = min (String.length number) (String.length rest) in
      String.sub s 0 at ^ String.sub number 0 k
      ^ String.sub rest k (String.length rest - k)
  | _ -> String.sub s 0 at ^ number ^ String.sub s at (n - at)

let mutations_arb =
  QCheck.(
    list_of_size (Gen.int_range 1 3)
      (quad (int_range 0 3) (int_range 0 1_000_000) (int_range 0 255) bool))

(* [accepts_or_fails parse base] is a property over mutated copies of
   [base]: [parse] may accept one, or raise [Failure], and nothing
   else. *)
let accepts_or_fails ~name ~count base parse =
  QCheck.Test.make ~name ~count mutations_arb (fun ms ->
      match parse (List.fold_left (fun s m -> mutate m s) base ms) with
      | () -> true
      | exception Failure _ -> true)

let prop_observations_mutations =
  let rng = Rng.create 61 in
  let obs =
    Tomo.Observations.make ~t_intervals:12
      ~path_good:(Array.init 9 (fun _ -> random_column rng 12))
  in
  accepts_or_fails ~name:"observations: mutations fail with Failure"
    ~count:400 (Tomo.Observations_io.to_string obs) (fun s ->
      ignore (Tomo.Observations_io.of_string s))

let robust_model = random_model (Rng.create 67)

let robust_columns =
  let rng = Rng.create 71 in
  Array.init 7 (fun _ -> random_column rng robust_model.Tomo.Model.n_paths)

let prop_snapshot_mutations =
  let engine = Engine.create ~model:robust_model ~window:4 () in
  Array.iter
    (fun c -> ignore (Engine.ingest engine (Bitset.copy c)))
    robust_columns;
  accepts_or_fails ~name:"snapshot: mutations fail with Failure" ~count:400
    (Tomo_stream.Snapshot.to_string (Engine.snapshot engine)) (fun s ->
      let snap = Tomo_stream.Snapshot.of_string s in
      ignore (Engine.of_snapshot ~model:robust_model snap))

let trace_records =
  let n_paths = robust_model.Tomo.Model.n_paths in
  [ "tomo-trace v1"; Printf.sprintf "paths %d" n_paths ]
  @ List.mapi
      (fun i c -> Printf.sprintf "tick %d %s" i (bits_of c n_paths))
      (Array.to_list robust_columns)

let prop_record_mutations =
  accepts_or_fails ~name:"record: mutations fail with Failure" ~count:400
    (String.concat "\n" trace_records) (fun s ->
      let r = Tomo_stream.Record.create () in
      List.iter
        (fun line -> ignore (Tomo_stream.Record.feed r line))
        (String.split_on_char '\n' s))

let prop_frame_mutations =
  accepts_or_fails ~name:"frame: mutations fail with Failure" ~count:400
    (wire_of trace_records) (fun s ->
      let dec = Frame.create ~max_payload:4096 () in
      let r = Tomo_stream.Record.create () in
      Frame.feed_string dec s;
      List.iter
        (fun p -> ignore (Tomo_stream.Record.feed r p))
        (drain_frames dec))

(* A mutated [peer <name>] hello ahead of a valid trace: the hub either
   registers the peer, under a sanitized name, and writes its report, or
   drops it; it never stops serving.  Each case runs a hub of its own,
   which takes about 0.2 s to stop, hence the small count. *)
let prop_hello_mutations =
  QCheck.Test.make ~name:"peer hello: mutations register or drop the peer"
    ~count:10 mutations_arb (fun ms ->
      let hello = List.fold_left (fun s m -> mutate m s) "peer alpha" ms in
      let n_paths = robust_model.Tomo.Model.n_paths in
      let wire =
        (if hello = "" then "" else wire_of [ hello ])
        ^ trace_frames ~n_paths robust_columns
      in
      with_tmpdir (fun dir ->
          let hub =
            Hub.create ~model:robust_model ~window:4 ~report_dir:dir ()
          in
          let runner = Thread.create Hub.run hub in
          let th, _ = spawn_peer hub wire in
          wait_for
            (fun () ->
              let s = Hub.stats hub in
              s.Hub.reports_written + s.Hub.peers_dropped = 1)
            "a report or a drop";
          Hub.request_stop hub;
          Thread.join runner;
          Thread.join th;
          let reports =
            List.filter
              (fun f -> Filename.check_suffix f ".report")
              (Array.to_list (Sys.readdir dir))
          in
          List.for_all
            (fun f ->
              String.for_all
                (function
                  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' ->
                      true
                  | _ -> false)
                f)
            reports
          && List.length reports = (Hub.stats hub).Hub.reports_written))

(* Counts of 20 digits, of [max_int] and of 10^11, each in a file that
   holds far fewer items: every parser must reject them with a Failure,
   without sizing anything by a count it has not checked against its
   input.  A snapshot's window capacity is such a count although no
   column line stands for it, so it is checked against
   [Window.max_capacity]: a resealed snapshot (valid checksum) declaring
   10^11 or [max_int] is rejected, and one at the bound restores.  The
   mutation properties only reach these by chance. *)
let test_huge_counts () =
  let rejects what parse text =
    match parse text with
    | () -> Alcotest.failf "%s accepted" what
    | exception Failure _ -> ()
  in
  let parse_observations s = ignore (Tomo.Observations_io.of_string s) in
  let parse_trace s =
    let r = Tomo_stream.Record.create () in
    List.iter
      (fun line -> ignore (Tomo_stream.Record.feed r line))
      (String.split_on_char '\n' s)
  in
  List.iter
    (fun n ->
      rejects ("observations paths " ^ n) parse_observations
        (Printf.sprintf
           "tomo-observations v1\npaths %s intervals 3\nrow 0 101\n" n);
      rejects ("observations intervals " ^ n) parse_observations
        (Printf.sprintf
           "tomo-observations v1\npaths 1 intervals %s\nrow 0 101\n" n);
      rejects ("trace paths " ^ n) parse_trace
        (Printf.sprintf "tomo-trace v1\npaths %s\ntick 0 101" n))
    [ "99999999999999999999"; string_of_int max_int; "100000000000" ];
  let module Snapshot = Tomo_stream.Snapshot in
  let n_paths = robust_model.Tomo.Model.n_paths in
  let resealed capacity =
    Snapshot.to_string
      {
        Snapshot.n_paths;
        capacity;
        ticks = 1;
        columns = [| robust_columns.(0) |];
        model = None;
      }
  in
  List.iter
    (fun capacity ->
      let text = resealed capacity in
      check_bool "resealed with the capacity" true
        (String.starts_with ~prefix:"tomo-snapshot v1\n" text);
      match Snapshot.of_string ~filename:"resealed.snap" text with
      | snap ->
          ignore (Engine.of_snapshot ~model:robust_model snap);
          Alcotest.failf "snapshot capacity %d accepted" capacity
      | exception Failure msg ->
          check_bool "anchored at the file" true
            (String.starts_with ~prefix:"resealed.snap: corrupted snapshot: "
               msg))
    [ 100_000_000_000; max_int; Tomo_stream.Window.max_capacity + 1 ];
  let bound = Tomo_stream.Window.max_capacity in
  let restored =
    Engine.of_snapshot ~model:robust_model
      (Snapshot.of_string (resealed bound))
  in
  check_int "a window at the bound restores" bound
    (Tomo_stream.Window.capacity (Engine.window restored));
  Alcotest.check_raises "Window.create refuses past the bound"
    (Invalid_argument "Window.create: capacity above Window.max_capacity")
    (fun () ->
      ignore (Tomo_stream.Window.create ~capacity:(bound + 1) ~n_paths))

(* A snapshot saved for another model is bad input, not a bug: restoring
   it raises a Failure that names both path counts, and a hub that finds
   one in its snapshot directory drops the peer and goes on serving. *)
let test_wrong_model_snapshot () =
  let n_paths = robust_model.Tomo.Model.n_paths in
  let other =
    Tomo_stream.Snapshot.
      {
        n_paths = n_paths + 1;
        capacity = 4;
        ticks = 1;
        columns = [| Bitset.create (n_paths + 1) |];
        model = None;
      }
  in
  (match Engine.of_snapshot ~model:robust_model other with
  | _ -> Alcotest.fail "a snapshot of another model restored"
  | exception Failure msg ->
      Alcotest.(check string)
        "names both path counts"
        (Printf.sprintf "snapshot has %d paths, model has %d" (n_paths + 1)
           n_paths)
        msg);
  with_tmpdir (fun dir ->
      Tomo_obs.Sink.write_atomic
        (Filename.concat dir "alpha.snap")
        (Tomo_stream.Snapshot.to_string other);
      let hub = Hub.create ~model:robust_model ~window:4 ~snapshot_dir:dir () in
      let runner = Thread.create Hub.run hub in
      let th, _ =
        spawn_peer hub (trace_frames ~peer:"alpha" ~n_paths robust_columns)
      in
      wait_for (fun () -> (Hub.stats hub).Hub.peers_dropped = 1) "a drop";
      Hub.request_stop hub;
      Thread.join runner;
      Thread.join th)

let () =
  Tomo_par.Pool.set_default_jobs 1;
  Alcotest.run "net"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest frame_roundtrip_qcheck;
          QCheck_alcotest.to_alcotest frame_torn_qcheck;
          QCheck_alcotest.to_alcotest frame_bytewise_qcheck;
          Alcotest.test_case "rejections and boundaries" `Quick
            test_frame_rejections;
        ] );
      ( "hub",
        [
          Alcotest.test_case "socket report == direct report" `Quick
            test_hub_matches_direct;
          Alcotest.test_case "kill + snapshot restore is bit-identical"
            `Quick test_hub_kill_restore;
          Alcotest.test_case "every saved snapshot is timed" `Quick
            test_hub_snapshots_timed;
          Alcotest.test_case "garbage peers dropped, good peer isolated"
            `Quick test_hub_garbage_peer_isolated;
          Alcotest.test_case "half-open peer reaped by idle timeout" `Quick
            test_hub_idle_timeout;
          Alcotest.test_case "queue overflow drops under drop policy" `Quick
            test_hub_overflow_drop_policy;
        ] );
      ( "listener",
        [
          Alcotest.test_case "accepts over a Unix socket" `Quick
            test_listener_accepts;
          Alcotest.test_case "telemetry and ingest loops side by side" `Quick
            test_accept_loops_side_by_side;
        ] );
      ( "robust",
        [
          QCheck_alcotest.to_alcotest prop_observations_mutations;
          QCheck_alcotest.to_alcotest prop_snapshot_mutations;
          QCheck_alcotest.to_alcotest prop_record_mutations;
          QCheck_alcotest.to_alcotest prop_frame_mutations;
          QCheck_alcotest.to_alcotest prop_hello_mutations;
          Alcotest.test_case "huge declared counts rejected" `Quick
            test_huge_counts;
          Alcotest.test_case "snapshot of another model is a Failure" `Quick
            test_wrong_model_snapshot;
        ] );
    ]
