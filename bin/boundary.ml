(* The one error boundary.  Failure, Sys_error and Unix_error carry a
   message that names the file or address at fault: the command ends
   with that one line on stderr and exit 123.  Any other exception
   escapes to cmdliner, which reports it as an internal error (exit
   125): it is a bug. *)

open Cmdliner

let guard run =
  match run () with
  | () -> Ok ()
  | exception (Failure msg | Sys_error msg) -> Error msg
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (String.concat ": "
           (List.filter (( <> ) "") [ arg; fn; Unix.error_message e ]))

let eval ?argv ?err info cmds =
  Cmd.eval_result ?argv ?err
    (Cmd.group info
       (List.map (fun (info, run) -> Cmd.v info Term.(const guard $ run)) cmds))
