(* The built tomo_cli at its error boundary: bad input — a malformed or
   missing file, an unusable socket, a stream that does not fit the
   model, an output file that cannot be written — ends the program
   with exit 123 and exactly one stderr line, [tomo_cli: <message>],
   whose message names the file or address; a command-line usage error
   exits 124; any other exception is a bug and still exits 125. *)

let cli = "../bin/tomo_cli.exe"
let smoke = "../data/smoke.trace"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let tmpdir =
  let dir = Filename.temp_file "tomo_cli_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  at_exit (fun () -> try rm_rf dir with Sys_error _ -> ());
  dir

let tmp name = Filename.concat tmpdir name

let write name text =
  Out_channel.with_open_bin (tmp name) (fun oc -> output_string oc text);
  tmp name

(* Run the CLI with [args], and [env] added to the environment; its
   exit code and the lines of its stderr. *)
let run ?(env = []) args =
  let out = tmp "stdout" and err = tmp "stderr" in
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let fd_out = fd out and fd_err = fd err in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: args))
      (Array.append (Unix.environment ()) (Array.of_list env))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        Alcotest.failf "killed by signal %d" s
  in
  let lines =
    In_channel.with_open_bin err In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  (code, lines)

let serve_replay ?(extra = []) file =
  [ "serve"; "--scale"; "small"; "--seed"; "7"; "--window"; "40" ]
  @ [ "--replay"; file ] @ extra

(* An OCaml-escaped byte, as Printexc would print a non-ASCII one. *)
let escaped line =
  let n = String.length line in
  let rec go i =
    i + 3 < n
    && (line.[i] = '\\'
        && String.for_all
             (fun c -> c >= '0' && c <= '9')
             (String.sub line (i + 1) 3)
       || go (i + 1))
  in
  go 0

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Exit 123 and one stderr line, [tomo_cli: <prefix>...], unescaped. *)
let bad_input ~prefix args () =
  let code, lines = run args in
  Alcotest.(check int) "exit status" 123 code;
  match lines with
  | [ line ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%S starts with %S" line ("tomo_cli: " ^ prefix))
        true
        (String.starts_with ~prefix:("tomo_cli: " ^ prefix) line);
      Alcotest.(check bool) "no exception syntax" false
        (contains line "internal error" || contains line "Failure(");
      Alcotest.(check bool) "no escaped byte" false (escaped line)
  | _ ->
      Alcotest.failf "expected one stderr line, got:\n%s"
        (String.concat "\n" lines)

let usage_error args () =
  let code, lines = run args in
  Alcotest.(check int) "exit status" 124 code;
  Alcotest.(check bool) "tomo_cli: on stderr" true
    (match lines with
    | first :: _ -> String.starts_with ~prefix:"tomo_cli: " first
    | [] -> false)

(* A count flag given [value]: a usage error whose first line names the
   flag and asks for a positive integer.  The value is glued to the flag
   ([--flag=V], [-jV]), so a negative one is not read as an option. *)
let not_a_count ~flag ~value args () =
  let glued =
    if String.starts_with ~prefix:"--" flag then flag ^ "=" ^ value
    else flag ^ value
  in
  let code, lines = run (args @ [ glued ]) in
  Alcotest.(check int) "exit status" 124 code;
  match lines with
  | first :: _ ->
      Alcotest.(check string) "first stderr line"
        (Printf.sprintf
           "tomo_cli: option '%s': expected a positive integer, got %S" flag
           value)
        first
  | [] -> Alcotest.fail "empty stderr"

let bad_replay_cases =
  let case name text prefix =
    let file = write name text in
    Alcotest.test_case name `Quick
      (bad_input ~prefix:(file ^ prefix) (serve_replay file))
  in
  [
    case "bad header" "tomo-trace v9\npaths 150\n"
      ":1: unknown replay format \"tomo-trace v9\"";
    case "empty file" "" ": empty or truncated replay file — expected";
    case "no paths line" "tomo-trace v1\n"
      ":1: truncated trace: missing 'paths <n>' line";
    case "ragged tick"
      ("tomo-trace v1\npaths 150\ntick 0 " ^ String.make 149 '1' ^ "\n")
      ":3: ragged tick: expected 150 status characters, got 149";
    Alcotest.test_case "missing file" `Quick
      (bad_input ~prefix:(tmp "nope.trace" ^ ": No such file or directory")
         (serve_replay (tmp "nope.trace")));
  ]

(* A snapshot of the smoke trace's first 45 ticks, then three bad
   restores from it. *)
let snapshot_cases =
  let snap = tmp "smoke.snap" in
  let saved () =
    if not (Sys.file_exists snap) then begin
      let code, _ =
        run
          (serve_replay smoke
             ~extra:[ "--max-ticks"; "45"; "--snapshot-out"; snap ])
      in
      Alcotest.(check int) "snapshot written" 0 code
    end;
    In_channel.with_open_bin snap In_channel.input_all
  in
  [
    Alcotest.test_case "corrupt snapshot" `Quick (fun () ->
        let text = Bytes.of_string (saved ()) in
        Bytes.set text 40 (if Bytes.get text 40 = '0' then '1' else '0');
        let bad = write "corrupt.snap" (Bytes.to_string text) in
        bad_input ~prefix:(bad ^ ": corrupted snapshot: ")
          (serve_replay smoke ~extra:[ "--snapshot-in"; bad ])
          ());
    Alcotest.test_case "missing snapshot" `Quick
      (bad_input ~prefix:(tmp "nope.snap" ^ ": No such file or directory")
         (serve_replay smoke ~extra:[ "--snapshot-in"; tmp "nope.snap" ]));
    Alcotest.test_case "snapshot of another model" `Quick (fun () ->
        ignore (saved ());
        bad_input
          ~prefix:(snap ^ ": snapshot has 150 paths, model has 450")
          [
            "serve"; "--scale"; "medium"; "--seed"; "7"; "--replay"; smoke;
            "--snapshot-in"; snap;
          ]
          ());
  ]

let other_cases =
  [
    Alcotest.test_case "window longer than the trace" `Quick
      (bad_input
         ~prefix:(smoke ^ ": trace has only 60 intervals; --window 100")
         [
           "batch-report"; "--scale"; "small"; "--seed"; "7"; "--replay";
           smoke; "--window"; "100";
         ]);
    Alcotest.test_case "serve without a stream" `Quick
      (bad_input ~prefix:"serve needs a stream: "
         [ "serve"; "--scale"; "small" ]);
    Alcotest.test_case "send to a missing socket" `Quick
      (bad_input
         ~prefix:(tmp "nope.sock" ^ ": connect: ")
         [ "send-trace"; "--to"; tmp "nope.sock"; "--trace"; smoke ]);
  ]

(* A whole-file write that fails names the file it was asked to write,
   once, and the reason: exit 123 and exactly [line] on stderr.  No
   byte fits on /dev/full, and nothing can be made inside it. *)
let failed_write ~line args () =
  let code, lines = run args in
  Alcotest.(check int) "exit status" 123 code;
  Alcotest.(check (list string)) "stderr" [ line ] lines

let failed_write_cases =
  let full = "/dev/full" in
  let no_space = "tomo_cli: /dev/full: No space left on device" in
  [
    Alcotest.test_case "gen-trace --out" `Quick
      (failed_write ~line:no_space
         [ "gen-trace"; "--scale"; "small"; "--intervals"; "5"; "--out"; full ]);
    Alcotest.test_case "serve --report-out" `Quick
      (failed_write ~line:no_space
         (serve_replay smoke ~extra:[ "--report-out"; full ]));
    Alcotest.test_case "serve --snapshot-out" `Quick
      (failed_write ~line:no_space
         (serve_replay smoke ~extra:[ "--snapshot-out"; full ]));
    Alcotest.test_case "batch-report --report-out" `Quick
      (failed_write ~line:no_space
         [
           "batch-report"; "--scale"; "small"; "--seed"; "7"; "--window"; "40";
           "--replay"; smoke; "--report-out"; full;
         ]);
    Alcotest.test_case "fig3 --csv: the CSV, not its temp file" `Quick
      (failed_write ~line:"tomo_cli: /dev/full/fig3.csv: Not a directory"
         [ "fig3"; "--scale"; "small"; "--csv"; full ]);
    (* The metrics file is telemetry: its failure is a warning naming
       the file once, not the temp file, and the run still succeeds. *)
    Alcotest.test_case "serve --metrics-out warns once" `Quick (fun () ->
        let metrics = tmp "missing/metrics.json" in
        let code, lines =
          run (serve_replay smoke ~extra:[ "--metrics-out"; metrics ])
        in
        Alcotest.(check int) "exit status" 0 code;
        Alcotest.(check (list string))
          "stderr"
          [
            Printf.sprintf
              "tomo_obs: cannot write metrics file %s: No such file or \
               directory"
              metrics;
          ]
          lines);
    (* So is the JSON-lines trace file: a close that fails on a full
       disk is the same one warning, and the report is unchanged. *)
    Alcotest.test_case "TOMO_TRACE file warns once" `Quick (fun () ->
        let report name =
          let file = tmp name in
          (file, serve_replay smoke ~extra:[ "--report-out"; file ])
        in
        let plain, plain_args = report "plain.report" in
        let traced, traced_args = report "traced.report" in
        let code, _ = run plain_args in
        Alcotest.(check int) "untraced exit status" 0 code;
        let code, lines = run ~env:[ "TOMO_TRACE=" ^ full ] traced_args in
        Alcotest.(check int) "exit status" 0 code;
        Alcotest.(check (list string))
          "stderr"
          [
            "tomo_obs: cannot write trace file /dev/full: No space left on \
             device";
          ]
          lines;
        let read f = In_channel.with_open_bin f In_channel.input_all in
        Alcotest.(check string) "the same report" (read plain) (read traced));
  ]

(* [all --seeds 2]: the figures that average say so in their first
   line, fig4c and fig4d run one seed and do not claim to average. *)
let all_seeds () =
  let code, _ = run [ "all"; "--scale"; "small"; "--seeds"; "2" ] in
  Alcotest.(check int) "exit status" 0 code;
  let running =
    In_channel.with_open_bin (tmp "stdout") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"Running Figure ")
  in
  List.iter
    (fun (figure, averaged) ->
      match List.filter (fun l -> contains l figure) running with
      | [ line ] ->
          Alcotest.(check bool) line averaged (contains line "2 seeds averaged")
      | _ -> Alcotest.failf "%s announced other than once" figure)
    [
      ("Figure 3 ", true);
      ("Figure 4(a)", true);
      ("Figure 4(b)", true);
      ("Figure 4(c)", false);
      ("Figure 4(d)", false);
    ]

let usage_cases =
  [
    Alcotest.test_case "unknown topology" `Quick
      (usage_error (serve_replay smoke ~extra:[ "--topology"; "mesh" ]));
    Alcotest.test_case "unknown ingest policy" `Quick
      (usage_error
         [ "serve"; "--ingest"; tmp "in.sock"; "--ingest-policy"; "bogus" ]);
    Alcotest.test_case "all-digit address out of port range" `Quick
      (usage_error (serve_replay smoke ~extra:[ "--listen"; "99999999" ]));
    Alcotest.test_case "--seeds only where it averages" `Quick (fun () ->
        List.iter
          (fun sub -> usage_error [ sub; "--seeds"; "2" ] ())
          [
            "fig4c"; "fig4d"; "ablation"; "fallback"; "probes"; "convergence";
            "report"; "summary"; "identifiability";
          ]);
    Alcotest.test_case "all --seeds averages fig3, fig4a, fig4b" `Quick
      all_seeds;
    Alcotest.test_case "count flags take positive integers" `Quick (fun () ->
        List.iter
          (fun (flag, args) ->
            List.iter
              (fun value -> not_a_count ~flag ~value args ())
              [ "0"; "-2"; "ten" ])
          [
            ( "--intervals",
              [ "gen-trace"; "--scale"; "small"; "--out"; tmp "z.trace" ] );
            ("--snapshot-every", serve_replay smoke);
            ("--ingest-queue", [ "serve"; "--ingest"; tmp "in.sock" ]);
            ("--seeds", [ "fig3"; "--scale"; "small" ]);
            ("-j", [ "fig3"; "--scale"; "small" ]);
            ("--jobs", [ "fig4a"; "--scale"; "small" ]);
          ]);
  ]

let boundary_cases =
  [
    Alcotest.test_case "good replay exits 0, stderr empty" `Quick (fun () ->
        let code, lines = run (serve_replay smoke) in
        Alcotest.(check int) "exit status" 0 code;
        Alcotest.(check (list string)) "stderr" [] lines);
    (* The metrics flusher refuses an infinite period with
       Invalid_argument: a bug's exception, which the boundary leaves to
       cmdliner. *)
    Alcotest.test_case "Invalid_argument still exits 125" `Quick (fun () ->
        let code, lines =
          run (serve_replay smoke ~extra:[ "--flush-every"; "inf" ])
        in
        Alcotest.(check int) "exit status" 125 code;
        Alcotest.(check bool) "reported as an internal error" true
          (List.exists (fun l -> contains l "Invalid_argument") lines));
  ]

let () =
  Alcotest.run "cli"
    [
      ("replay", bad_replay_cases);
      ("snapshot", snapshot_cases);
      ("input", other_cases);
      ("output", failed_write_cases);
      ("usage", usage_cases);
      ("boundary", boundary_cases);
    ]
