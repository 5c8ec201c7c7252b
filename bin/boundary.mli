(** [tomo_cli]'s error boundary, apart from its commands so that a test
    can drive it with a command of its own. *)

(** [eval ?argv ?err info cmds] runs the command group [info] of [cmds],
    each a command's info and its term, on [argv] (default
    [Sys.argv]), and returns the exit code: 0 on success; 123 when a
    command raises [Failure], [Sys_error] or [Unix.Unix_error], with one
    line [<name>: <message>] on [err]; 124 on a usage error; 125 on any
    other exception, which is a bug. *)
val eval :
  ?argv:string array ->
  ?err:Format.formatter ->
  Cmdliner.Cmd.info ->
  (Cmdliner.Cmd.info * (unit -> unit) Cmdliner.Term.t) list ->
  Cmdliner.Cmd.Exit.code
