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
    count requests, and so appear in their own scrape output. *)

type t

type listen =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port *)

(** ["HOST:PORT"], [":PORT"] and ["PORT"] parse as TCP (host defaults
    to 127.0.0.1); anything else is a Unix-socket path. *)
val listen_of_string : string -> (listen, string) result

val listen_to_string : listen -> string

(** [bind l] binds and listens on [l], returning the listening socket
    (backlog 16).  A stale Unix socket file at the path is removed
    first; TCP sockets get [SO_REUSEADDR].  Shared with the ingestion
    plane ([Tomo_net.Listener]), so telemetry and ingestion accept
    identical address syntax.  @raise Unix.Unix_error on bind
    failures. *)
val bind : listen -> Unix.file_descr

(** Bind and start serving on a background thread.  [health] / [status]
    return complete JSON bodies and are called on the exporter thread —
    they must be thread-safe (read an immutable published snapshot, not
    live engine internals).  A stale Unix socket file at the path is
    removed first; other bind failures raise [Unix.Unix_error].
    Stop with {!stop} — or don't: an abandoned exporter dies with the
    process. *)
val start :
  ?health:(unit -> string) -> ?status:(unit -> string) -> listen -> t

(** Close the listening socket (unlinking a Unix socket path) and join
    the serving thread.  Idempotent. *)
val stop : t -> unit

(** Pure renderer behind [/metrics], exposed for golden tests. *)
val prometheus_of_snapshot : Metrics.snapshot -> string
