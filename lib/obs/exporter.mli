(** Scrapeable live-telemetry endpoint: a minimal HTTP server (stdlib
    [Unix] + one systhread, no dependencies) over a Unix-domain or TCP
    socket.

    Routes:
    - [/metrics] — the {!Metrics} registry in Prometheus text format:
      counters, gauges, and histograms with cumulative power-of-two
      [le] buckets, so [histogram_quantile(0.95, ...)] works as usual;
    - [/healthz] — the [health] callback's JSON (tick progress, window
      fill, snapshot age, last sink error — composed by the serve
      loop), or a minimal [{"status":"ok",...}] when none is given;
    - [/status] — the [status] callback's JSON engine view, 404 if
      none.

    The accept loop only reads (the registry is thread-safe; callbacks
    must be), so scraping a running engine cannot change its results —
    the streaming==batch bit-identity gate holds with an exporter
    attached.  Counters [telemetry_scrapes] / [telemetry_scrape_errors]
    count requests, and so appear in their own scrape output.  Its
    accept loop, {!serve}, also takes a serve daemon's ingestion peers. *)

type t

type listen =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port *)

(** ["HOST:PORT"], [":PORT"] and ["PORT"] parse as TCP (host defaults
    to 127.0.0.1), and a port outside 1-65535 is an error; anything
    else is a Unix-socket path, save that an all-digit address is always
    read as a port. *)
val listen_of_string : string -> (listen, string) result

val listen_to_string : listen -> string

(** [connect l] is a stream socket connected to [l].
    @raise Unix.Unix_error naming [l] (its third field) if the connect
    fails, and [Failure] if a TCP host does not resolve. *)
val connect : listen -> Unix.file_descr

(** [serve ~events ~failure l ~on_accept] binds and listens on [l] and
    starts the accept thread, which hands each connection to
    [on_accept]; the connection is then [on_accept]'s, and the next
    accept waits for it to return.  An exception from [on_accept]
    closes the connection and is recorded ({!Sink.record_error}) as
    ["<failure>: <exception>"].  Emits [<events>_listening] here and
    [<events>_stopped] at {!stop}.  A stale Unix socket file at the path
    is removed first; TCP sockets get [SO_REUSEADDR].
    @raise Unix.Unix_error naming [l] on bind failures. *)
val serve :
  events:string ->
  failure:string ->
  listen ->
  on_accept:(Unix.file_descr -> unit) ->
  t

(** Bind and start serving HTTP through {!serve} (events
    [exporter_listening] / [exporter_stopped]; a failed request is
    recorded as ["telemetry request failed: ..."] and counted in
    [telemetry_scrape_errors]).  [health] / [status] return complete
    JSON bodies and are called on the exporter thread — they must be
    thread-safe (read an immutable published snapshot, not live engine
    internals).  Stop with {!stop} — or don't: an abandoned exporter
    dies with the process. *)
val start :
  ?health:(unit -> string) -> ?status:(unit -> string) -> listen -> t

(** Close the listening socket (unlinking a Unix socket path) and join
    the accept thread.  Connections [on_accept] took are untouched.
    Idempotent. *)
val stop : t -> unit

(** Pure renderer behind [/metrics], exposed for golden tests. *)
val prometheus_of_snapshot : Metrics.snapshot -> string
