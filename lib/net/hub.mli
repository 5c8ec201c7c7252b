(** The ingestion hub: N concurrent framed-trace peers multiplexed into
    per-peer sharded {!Tomo_stream.Engine}s.

    Threading model (see DESIGN.md):
    - one {e reader systhread per peer} does the blocking I/O: read,
      {!Frame} decode, {!Tomo_stream.Record} parse, push the tick's
      bitset onto the peer's bounded queue;
    - the {e drain loop} ({!run}, on the caller's thread) splices every
      ready peer's queued ticks out and ingests them over
      {!Tomo_par.Pool.parallel_map} — one task per peer, each ingesting
      its ticks {e in order} into its own engine, so the cross-peer
      schedule can never change any peer's numbers and a socket-fed
      report is bit-identical to [serve --replay] of the same trace;
    - a {e ticker systhread} polls the stop flag and idle peers every
      ~100 ms and broadcasts the drain loop's condition variable, so
      {!request_stop} stays async-signal-safe (it only flips an
      [Atomic]).

    Backpressure: each peer's queue holds at most [queue_capacity]
    ticks.  Policy {!Block} parks the reader thread until the drain
    loop catches up — the kernel socket buffer then fills and the
    sender's writes stall, i.e. ordinary TCP backpressure.  Policy
    {!Drop_peer} disconnects the slow peer instead ([peer_dropped]
    event, [reason=overflow]), protecting the rest of the fleet.

    Crash recovery: with [snapshot_dir], every peer's engine state is
    saved ({!Tomo_stream.Engine.save_snapshot}: atomic, and timed as the
    [stream.snapshot] stage) every [snapshot_every] ticks and at
    shutdown as [<dir>/<peer>.snap]; a reconnecting peer of the same
    name is restored from its snapshot and the first [ticks] re-sent
    ticks are skipped, so a killed-and-restarted hub produces
    byte-identical per-peer reports to one that never stopped.

    A peer announces itself with an optional first frame [peer <name>]
    ([A-Za-z0-9_.-] only — anything else is mapped to [_] before the
    name becomes a snapshot filename); unnamed peers get [peer-<k>]
    and therefore no cross-restart identity. *)

(** What to do with a peer whose queue is full. *)
type policy = Block | Drop_peer

type t

(** [create ~model ~window ()] builds an idle hub (no socket of its own
    — pass {!attach} as {!Tomo_obs.Exporter.serve}'s [on_accept]).

    @param queue_capacity per-peer bounded queue, in ticks (default 64).
    @param policy full-queue behaviour (default {!Block}).
    @param idle_timeout seconds of peer silence before it is dropped
      ([reason=idle]); 0 (the default) waits forever.
    @param snapshot_dir directory for per-peer [<name>.snap] files —
      also where reconnecting peers are restored from.
    @param report_dir directory for per-peer [<name>.report] files
      (tomo-report v1), written when a peer's stream ends cleanly.
    @param snapshot_every snapshot cadence in ticks (default 1).
    @param max_ticks stop the whole hub after ingesting exactly this
      many ticks across all peers — the deterministic stand-in for a
      mid-stream kill ({!run} finalizes snapshots but writes no
      reports). *)
val create :
  ?pool:Tomo_par.Pool.t ->
  ?queue_capacity:int ->
  ?policy:policy ->
  ?idle_timeout:float ->
  ?snapshot_dir:string ->
  ?report_dir:string ->
  ?snapshot_every:int ->
  ?max_ticks:int ->
  model:Tomo.Model.t ->
  window:int ->
  unit ->
  t

(** Adopt an accepted connection: spawns the peer's reader thread.
    Intended as [Exporter.serve ~on_accept:(Hub.attach hub)]. *)
val attach : t -> Unix.file_descr -> unit

(** Ask {!run} to wind down.  Only flips an [Atomic] — safe to call
    from a signal handler. *)
val request_stop : t -> unit

(** The drain loop: ingest queued ticks until {!request_stop} or the
    [max_ticks] budget is spent, then release every reader, finalize
    every peer (final snapshot; report only for cleanly ended peers
    when not cut by [max_ticks]), and return.  Call once. *)
val run : t -> unit

(** Unconditional lifetime totals (unlike {!Tomo_obs.Metrics}, these
    count even with telemetry disabled — tests read them). *)
type stats = {
  frames_total : int;
  bytes_total : int;
  peers_connected : int;  (** lifetime accepts *)
  peers_active : int;  (** currently registered, not yet finalized *)
  peers_dropped : int;  (** idle / overflow / protocol-error drops *)
  ticks_ingested : int;
  reports_written : int;
}

val stats : t -> stats

(** Per-peer view as a JSON object, served under the CLI's [/status]:
    [{"peers":[{"name":..,"ticks":..,"queued":..,"state":
    "active"|"eof"|"dropped"|"finalized"},..],"ticks_ingested":..,
    "frames_total":..}]. *)
val status_json : t -> string
