(* Regression for [Sink.write_atomic] on a full disk: a payload shorter
   than the channel buffer reaches the file only when the channel is
   closed, so a close that swallowed its error would rename a truncated
   temp file over the last good copy.  The dune rule runs this program
   under a 2 KiB file-size limit with SIGXFSZ ignored, so that close
   fails with EFBIG the way it would with ENOSPC.  The error names the
   target once, as given, and no other file: the reason follows it. *)
let () =
  let dir = Filename.temp_file "tomo_atomic_close" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let target = Filename.concat dir "snapshot" in
  let outcome =
    Fun.protect ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
    @@ fun () ->
    Out_channel.with_open_bin target (fun oc ->
        Out_channel.output_string oc "last good");
    let raised =
      match Tomo_obs.Sink.write_atomic target (String.make 32_768 'x') with
      | () -> None
      | exception Sys_error msg -> Some msg
    in
    (raised, In_channel.with_open_bin target In_channel.input_all,
     Array.to_list (Sys.readdir dir))
  in
  let names_target msg =
    let prefix = target ^ ": " in
    let n = String.length prefix in
    String.starts_with ~prefix msg
    && not (String.contains (String.sub msg n (String.length msg - n)) '/')
  in
  match outcome with
  | Some msg, "last good", [ "snapshot" ] when names_target msg ->
      print_endline "atomic write close failure: ok"
  | raised, kept, left ->
      Printf.eprintf
        "atomic write close failure: raised %s, target holds %d bytes, \
         directory holds [%s]\n"
        (match raised with Some msg -> Printf.sprintf "%S" msg | None -> "nothing")
        (String.length kept) (String.concat "; " left);
      exit 1
