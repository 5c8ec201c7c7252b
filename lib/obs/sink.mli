(** Export sinks for {!Trace} spans and {!Metrics} snapshots.

    Configuration comes from two environment variables (or explicit
    [init] arguments, which the CLI's [--trace] / [--metrics-out] flags
    use):

    - [TOMO_TRACE]: unset, ["0"] or ["off"] — tracing disabled;
      ["1"], ["human"] or ["tree"] — print a span tree on flush;
      ["json"] or ["jsonl"] — spans as JSON lines on stderr;
      any other value — spans as JSON lines appended to that file path.
    - [TOMO_METRICS_OUT]: a file path (["-"] for stdout) that receives
      one JSON object with every registered counter, gauge and
      histogram on flush.

    [init] enables {!Trace} / {!Metrics} recording as needed and
    registers an [at_exit] flush, so any binary that calls
    [Sink.init ()] once at startup gets observability for free.  When
    neither sink is configured nothing is enabled and the instrumented
    code runs at its uninstrumented speed. *)

type trace_mode =
  | Trace_off
  | Trace_human  (** span tree + metrics table on stdout *)
  | Trace_jsonl of string  (** JSON lines to a path, ["-"] = stderr *)

(** [init ?trace ?metrics_out ()] configures the sinks.  Omitted
    arguments fall back to the environment variables above.  Idempotent;
    may be called again (e.g. once from [main], once after CLI parsing)
    — the last call wins. *)
val init : ?trace:trace_mode -> ?metrics_out:string -> unit -> unit

(** Render the current metrics snapshot as aligned tables. *)
val pp_metrics_table : Format.formatter -> unit -> unit

(** One JSON object per span (pre-order), one per line.  Each line
    carries [path] (slash-joined ancestry), [name], [start_s],
    [duration_s] and [attrs]. *)
val spans_jsonl : Buffer.t -> Trace.span list -> unit

(** The snapshot as a single JSON object:
    [{"counters":{...},"gauges":{...},"histograms":{...}}].  Each
    histogram carries [p50]/[p95]/[p99] estimated from its
    power-of-two buckets ({!Metrics.quantile}); [null] when empty. *)
val snapshot_json : Metrics.snapshot -> string

(** Write everything to the configured sinks, draining recorded spans.
    Thread-safe and idempotent: concurrent callers serialize on an
    internal lock, spans are emitted exactly once
    ({!Trace.take_roots}), and the metrics file is rewritten atomically
    (temp file + rename) so a concurrent scrape or a kill mid-write
    never observes a torn JSON file.  Called automatically at exit
    after [init]; a periodic {!Flusher} calls it on a cadence. *)
val flush : unit -> unit

(** [write_atomic path content] replaces the file at [path] with
    [content] by writing a hidden temp file next to it and renaming it
    over [path], so a reader or a kill never observes a torn file.  On
    any failure, a close that cannot write out the buffered content (a
    full disk) included, the temp file is removed, [path] is left as it
    was and the exception re-raised; a [Sys_error]'s message becomes
    [path ^ ": " ^ reason], naming [path] as given once, whichever
    file the failing step touched.  As with
    [open_out], the file gets [open_out]'s mode, a symlink is written
    through to the file it names, and a device or pipe (say
    [/dev/stdout]) is written in place, not atomically.  Every file the program
    writes whole goes through it: the metrics file, engine snapshots,
    reports, traces, observation and overlay files, figure CSVs and the
    bench's JSON. *)
val write_atomic : string -> string -> unit

(** The most recent sink write failure ([None] if none) — surfaced in
    the exporter's [/healthz] as [last_error]. *)
val last_error : unit -> string option

(** Record an error for {!last_error} (used by the exporter and event
    log for their own write failures). *)
val record_error : string -> unit
