(** Periodic {!Sink.flush} on a background thread, so a long-lived
    serve loop's metrics file / trace JSONL are current on a cadence
    instead of only at exit.  {!Sink.flush} is idempotent and
    thread-safe, so the flusher composes with explicit and at_exit
    flushes without emitting anything twice.  Counter
    [telemetry_flushes] counts completed periodic flushes. *)

type t

(** [start ~period_s ()] begins flushing every [period_s] seconds.
    @raise Invalid_argument if [period_s <= 0] or not finite. *)
val start : period_s:float -> unit -> t

(** Stop the thread (joins; takes at most ~50 ms) and flush once more so
    nothing recorded since the last period is lost.  Idempotent. *)
val stop : t -> unit
