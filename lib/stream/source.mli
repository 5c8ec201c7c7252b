(** Measurement sources: where the replay engine's per-interval batches
    come from.

    A batch is one measurement interval's column of path statuses — a
    {!Tomo_util.Bitset.t} over paths, bit [p] set iff path [p] was
    measured good.  There are two replay sources: a [tomo-trace v1]
    file or stdin stream ({!Tomo_netsim.Trace_io}'s format) and an
    interval-by-interval replay of an archived [tomo-observations v1]
    matrix.  The socket ingestion plane ([Tomo_net.Hub]) does not go
    through a source: it parses each frame with {!Record} and feeds the
    engine directly. *)

type t

(** [n_paths t] is the path count every batch of [t] is sized to. *)
val n_paths : t -> int

(** [next t] returns the next interval's column of path statuses;
    [None] means the stream ended cleanly (or [t] was closed).
    @raise Failure on malformed input, with a [file:line]-anchored
    message. *)
val next : t -> Tomo_util.Bitset.t option

(** [close t] releases the source's file, if it owns one; closing twice
    is a no-op. *)
val close : t -> unit

(** [fold source f init] drains the source, folding [f] over every
    batch. *)
val fold : t -> ('a -> Tomo_util.Bitset.t -> 'a) -> 'a -> 'a

(** [drop source n] discards up to [n] batches and returns how many were
    actually available — how a restored engine fast-forwards a replay
    source past the intervals its snapshot already contains. *)
val drop : t -> int -> int

(** [of_trace_file path] reads a [tomo-trace v1] file, or stdin when
    [path] is ["-"], validating the header and path count eagerly and
    each tick lazily (ragged/out-of-order/garbage lines raise [Failure]
    anchored at [path:line]).  A file whose header fails validation is
    closed before the [Failure] propagates. *)
val of_trace_file : string -> t

(** [of_observations obs] replays a batch observation matrix one interval
    at a time, in time order — the bridge from archived
    {!Tomo.Observations_io} files to the streaming engine. *)
val of_observations : Tomo.Observations.t -> t

(** [of_replay_file path] sniffs the header line and dispatches to
    {!of_trace_file} ([tomo-trace v1]) or to {!of_observations} over
    [Tomo.Observations_io.load] ([tomo-observations v1], sharing its
    [file:line]-anchored diagnostics for truncated or ragged archives);
    ["-"] always reads a trace from stdin.  An empty/truncated file or
    an unknown header raises [Failure] naming both accepted formats —
    the sniffer behind [tomo_cli serve --replay] and [batch-report
    --replay]. *)
val of_replay_file : string -> t
