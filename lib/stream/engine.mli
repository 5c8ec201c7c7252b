(** The online sliding-window tomography engine.

    Ingests path-observation batches one measurement interval at a time
    (from any {!Source}), maintains a bounded sliding {!Window}, and
    re-estimates Correlation-complete congestion probabilities per tick
    by reusing the batch machinery ({!Tomo.Algorithm1} +
    {!Tomo.Prob_engine}) — never from scratch:

    - the equation-system {e selection} is cached and recomputed only
      when the window's always-good path set changes (the only
      observation input Algorithm 1 reads); and Algorithm 1's answers
      for the last 2048 distinct always-good sets are kept packed
      ({!Tomo.Algorithm1.decision}) in a hash table keyed on the set's
      bytes, whose entries are linked in recency order, so a set that
      comes back rebuilds its selection from its answer
      ({!Tomo.Algorithm1.of_decision}) instead of running Algorithm 1
      again; from its second hit on, an entry among the 8 most recently
      used keeps its rebuilt selection and its rows' mask words, so a
      later hit on it is the lookup and a count of the rows over the
      window;
    - the per-row all-good {e counts} feeding the right-hand sides are
      updated incrementally from the evicted/fresh column pair each
      push, testing only the words of the two columns that a row's
      path mask occupies, and each count's log-frequency is read from
      the window observations' table of the [window + 1] values it can
      take ({!Tomo.Prob_engine.solve_with_counts});
    - marginal extraction is one sequential pass over the links, each
      a read of the solved engine through the selection's readout plan
      ({!Tomo.Readout}); the per-link identifiable flags are the plan's
      array, decided once per selection and shared by its estimates.
      An estimate runs on the caller's domain alone: a server that
      feeds several engines (the hub) fans out across them instead.

    Because every cached quantity is a deterministic function of the
    window contents, a full-window estimate is bit-identical to running
    the batch pipeline ({!Tomo.Correlation_complete.compute}) on those
    same intervals, and an engine restored from a {!Snapshot} continues
    bit-identically to one that never stopped.

    Observability (via {!Tomo_obs.Metrics} and {!Tomo_obs.Trace}, off
    unless a sink is configured): counters [stream_ticks],
    [stream_estimates], [stream_reselects] (every change of the
    selection), [stream_selection_cache_hits] (the reselects answered
    from the cache), [stream_selection_cache_built_hits] (those of them
    that reused the selection and masks their entry kept); gauges
    [stream_window_occupancy], [stream_window_capacity]; and one span
    per stage, feeding one histogram from the span's own clock readings
    ({!Tomo_obs.Trace.with_span}): [stream.tick] / [stream_tick_s], with
    children [stream.ingest] / [stream_stage_ingest_s] (push and count
    bookkeeping), [stream.reselect] / [stream_stage_reselect_s] (a
    change of the selection, Algorithm 1 or the cache's rebuild) and
    [stream.solve] / [stream_stage_solve_s] (the estimate), whose child
    [stream.system_solve] / [stream_solve_s] is the factorized solve
    alone; and [stream.snapshot] / [stream_stage_snapshot_s]
    ({!save_snapshot}).  Lifecycle events (via {!Tomo_obs.Events}, off
    unless configured): [reselect] (its [tick], the size of the
    [always_good] set, whether the cache answered it, [cached], and
    whether the entry kept a selection for it, [built]; the
    attributes are rendered only while the event log is open),
    plus [source_open]/[source_eof] from {!Source} and
    [snapshot_written]/[snapshot_restored] from {!Snapshot}. *)

type t

(** One full-window estimate. *)
type estimate = {
  tick : int;  (** total intervals ingested when this was computed *)
  result : Tomo.Pc_result.t;
  engine : Tomo.Prob_engine.t;
      (** the solved system, for subset/pattern queries *)
}

(** How many answers the selection cache holds: 2048, a constant,
    least recently used first out.  At 2048, 67% of the reselects of
    the [churn] benchmark workload are answered from it, against 42% at
    256 and 3% at 8 (DESIGN, "Selection cache"). *)
val selection_cache_capacity : int

(** How many of the cache's most recently used entries may keep a
    rebuilt selection and its row masks: 8, a constant.  An entry keeps
    them from its second hit on, and drops them when it falls behind
    the first 8. *)
val selection_cache_kept : int

(** [create ~model ~window ()] is an empty engine whose sliding window
    holds [window] intervals.
    @raise Invalid_argument if [window <= 0]. *)
val create : model:Tomo.Model.t -> window:int -> unit -> t

val window : t -> Window.t

(** Total intervals ingested over the engine's lifetime (survives
    snapshot/restore). *)
val ticks : t -> int

(** [ingest t good] feeds one interval batch (bit [p] set iff path [p]
    measured good; ownership transfers to the window).  Returns the
    refreshed estimate, or [None] while the window is still warming
    up.  When the batch changes the window's always-good set, the
    selection is rebuilt from the cached answer for the new set if the
    cache holds one, and selected by Algorithm 1 otherwise; the
    estimate is the same bits either way.  [?pool] is ignored: an
    estimate no longer fans out over a pool.  It stays only because
    the end-to-end benchmark ([bench/e2e/e2e.ml]) still passes it, and
    goes once that caller drops it. *)
val ingest : ?pool:Tomo_par.Pool.t -> t -> Tomo_util.Bitset.t -> estimate option

(** The words the current selection's rows occupy, which each tick's
    count update reads ({!Tomo_util.Bitset.occupied_words}); [None]
    before the first selection.  A cache entry keeps them from its
    second hit on, while it stays among the {!selection_cache_kept}
    most recently used, and a hit on it then reuses them, physically
    ([==]). *)
type row_masks

val row_masks : t -> row_masks option

(** [current t] re-estimates from the window as it stands (e.g. right
    after a restore, without waiting for the next batch); [None] while
    warming up. *)
val current : t -> estimate option

(** [snapshot t] captures resumable state; see {!Snapshot}. *)
val snapshot : t -> Snapshot.t

(** [save_snapshot t path] captures [t] and saves it atomically to
    [path] ({!Snapshot.save}), as the timed [stream.snapshot] stage. *)
val save_snapshot : t -> string -> unit

(** [of_snapshot ~model snap] resumes: the next estimate is
    bit-identical to an engine that never stopped.  The restored engine
    starts with an empty selection cache (a snapshot holds the window
    alone), so its first selection is Algorithm 1's.
    @raise Failure if the snapshot's path count does not match the
    model: a snapshot saved for another model is bad input. *)
val of_snapshot : model:Tomo.Model.t -> Snapshot.t -> t

(** [run ?snapshot_out ?snapshot_every ?max_ticks t source ~on_tick]
    is the service loop: drain [source] through {!ingest}, calling
    [on_tick] after every batch.  With [snapshot_out], a snapshot is
    written (atomically) every [snapshot_every] ticks (default 1) and
    once more at the stopping point.  [max_ticks] bounds how many
    batches {e this call} processes — the deterministic stand-in for a
    mid-stream kill.  Returns the last full-window estimate this call
    produced, if any.
    @raise Invalid_argument if [snapshot_every <= 0]. *)
val run :
  ?snapshot_out:string ->
  ?snapshot_every:int ->
  ?max_ticks:int ->
  t ->
  Source.t ->
  on_tick:(t -> estimate option -> unit) ->
  estimate option

(** The tick and system size of an estimate, and the dimension of
    its system's null space ({!Tomo.Algorithm1.selection}'s
    [nullity]): 0 when every variable is determined. *)
type last_estimate = { at_tick : int; rows : int; vars : int; nullity : int }

(** What the selection cache did over the engine's lifetime:
    [hits + misses] is [st_reselects]; [entries] is how many answers it
    holds now, at most {!selection_cache_capacity}; [built] is how many
    of those keep the selection and row masks of an earlier rebuild,
    at most [min entries selection_cache_kept]; [answer_bytes] is the
    bytes of the packed answers ({!Tomo.Algorithm1.decision_bytes}) and
    of their keys (the always-good sets, a bit a path) that the cache
    holds now. *)
type selection_cache = {
  hits : int;
  misses : int;
  entries : int;
  built : int;
  answer_bytes : int;
}

(** An immutable copy of the engine's scalar state, captured on the
    engine's own thread ({!status}) and safe to hand to the telemetry
    exporter's thread afterwards. *)
type status = {
  st_ticks : int;
  st_occupancy : int;
  st_capacity : int;
  st_full : bool;
  st_estimates : int;  (** estimates this engine computed (lifetime) *)
  st_reselects : int;
      (** selection changes this engine made, from the cache or not *)
  st_selection_cache : selection_cache;
  st_last : last_estimate option;
      (** the latest estimate; [None] before the first *)
}

val status : t -> status

(** [status_json ?uptime_s ?snapshot_age_s ?last_error st] renders the
    status as the stable JSON object served at [/healthz] and
    [/status]: [{"status":"ok"|"warming_up","ticks":..,"window":
    {"occupancy":..,"capacity":..,"full":..},"estimates":..,
    "reselects":..,"selection_cache":{"hits":..,"misses":..,
    "entries":..,"built":..,"answer_bytes":..},"last_estimate":
    {"tick":..,"rows":..,"vars":..,"nullity":..}|null,("uptime_s":..,)"snapshot_age_s":..|null,
    "last_error":..|null}]. *)
val status_json :
  ?uptime_s:float ->
  ?snapshot_age_s:float ->
  ?last_error:string ->
  status ->
  string

(** [report_to_string ~window est] renders the estimate in the stable,
    diffable [tomo-report v1] text format ([%.17g] marginals, so equal
    reports mean bit-equal floats) used by [tomo_cli serve] /
    [batch-report] and the CI streaming smoke job. *)
val report_to_string : window:int -> estimate -> string
