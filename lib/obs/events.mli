(** Structured JSONL event log for engine lifecycle events.

    Where {!Trace} answers "how long did this region take" and
    {!Metrics} answers "how much of this happened", the event log
    answers "what happened, and when": one JSON object per line,
    written (and flushed) the moment the event is emitted, so the log
    of a crashed daemon still ends at the crash.  The serve loop emits
    [source_open] / [source_eof], [reselect], [snapshot_written] /
    [snapshot_restored] and [pool_resize]; anything may emit its own.

    Disabled by default: [emit] is a single branch until [configure]
    installs an output.  Emission is thread-safe — concurrent events
    interleave as whole lines. *)

(** [configure (Some path)] starts appending events to [path] (["-"]
    for stderr); [configure None] flushes and closes.  Reconfiguring
    closes the previous output first. *)
val configure : string option -> unit

val enabled : unit -> bool

(** [emit ?ts event attrs] appends
    [{"ts":<seconds>,"event":<event>,"k":"v",...}].  [ts] defaults to
    now.  No-op while unconfigured; write failures print a warning and
    are otherwise swallowed (telemetry must not take the engine
    down). *)
val emit : ?ts:float -> string -> (string * string) list -> unit

(** Pure renderer behind [emit], exposed for escaping tests: the JSONL
    line (no trailing newline) for one event. *)
val line : ts:float -> string -> (string * string) list -> string

(** Flush and close the output (idempotent). *)
val close : unit -> unit
