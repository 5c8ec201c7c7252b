(* Regression for [Sink.write_atomic] on a full disk: a payload shorter
   than the channel buffer reaches the file only when the channel is
   closed, so a close that swallowed its error would rename a truncated
   temp file over the last good copy.  The dune rule runs this program
   under a 2 KiB file-size limit with SIGXFSZ ignored, so that close
   fails with EFBIG the way it would with ENOSPC. *)
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
      | () -> false
      | exception Sys_error _ -> true
    in
    (raised, In_channel.with_open_bin target In_channel.input_all,
     Array.to_list (Sys.readdir dir))
  in
  match outcome with
  | true, "last good", [ "snapshot" ] ->
      print_endline "atomic write close failure: ok"
  | raised, kept, left ->
      Printf.eprintf
        "atomic write close failure: raised=%b, target holds %d bytes, \
         directory holds [%s]\n"
        raised (String.length kept) (String.concat "; " left);
      exit 1
