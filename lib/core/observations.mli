(** Path observations over [T] intervals and the empirical probability
    estimates the equation systems are built from.

    The observable input to every algorithm in the paper is, per interval
    [t], which paths were good and which congested ([Y_p(t)],
    Assumption 2).  From those, Probability Computation needs empirical
    estimates of [P(∩_{p ∈ P} Y_p = 0)] — the probability that all paths
    of a set were simultaneously good — which it takes logs of to get
    linear equations (Eq. 1, footnote 3).

    Frequencies are smoothed with an add-half (Krichevsky–Trofimov) rule,
    [(count + 1/2) / (T + 1)], so the logarithm is defined even for path
    sets never observed jointly good.

    Observations are mutable at interval granularity:
    {!set_interval_statuses} replaces one interval's column of path
    statuses ({!flip_interval_statuses} toggles just the paths that
    changed) and incrementally maintains per-path good counts, which is
    what lets the streaming engine ({!Tomo_stream}) run a sliding window
    without recounting.  Counts-dependent reads ([good_frac],
    [always_good], singleton [all_good_count]) are O(1).

    Concurrency: mutation is single-writer; reads share no state, so
    read-only queries are safe from multiple domains. *)

type t

(** [make ~t_intervals ~path_good] wraps per-path status rows: bit [t] of
    [path_good.(p)] must be set iff path [p] was good during interval
    [t].  @raise Invalid_argument if a row has the wrong capacity or
    there are no paths/intervals. *)
val make : t_intervals:int -> path_good:Tomo_util.Bitset.t array -> t

(** [create ~t_intervals ~n_paths] is an all-congested observation matrix
    (every status bit clear) — the empty sliding window the streaming
    engine fills in place. *)
val create : t_intervals:int -> n_paths:int -> t

val t_intervals : t -> int
val n_paths : t -> int

(** [good_in_interval t ~path ~interval]: status of one cell. *)
val good_in_interval : t -> path:int -> interval:int -> bool

(** [set_interval_statuses t ~interval ~good] replaces interval
    [interval]'s column: path [p] is recorded good iff bit [p] of [good]
    is set.  Per-path good counts are updated incrementally (only cells
    that change are touched).  @raise Invalid_argument if [good] is not
    sized to [n_paths t] or the interval is out of range. *)
val set_interval_statuses :
  t -> interval:int -> good:Tomo_util.Bitset.t -> unit

(** [flip_interval_statuses t ~interval ~changed] toggles interval
    [interval]'s status of every path in [changed] and moves those
    paths' good counts with it: {!set_interval_statuses} for a caller
    that already knows which paths differ from the stored column (the
    sliding window, which XORs the evicted column with the fresh one),
    at a cost proportional to the changed paths.
    @raise Invalid_argument if [changed] is not sized to [n_paths t] or
    the interval is out of range. *)
val flip_interval_statuses :
  t -> interval:int -> changed:Tomo_util.Bitset.t -> unit

(** [good_count t ~path] is the number of intervals in which the path was
    good, O(1) from the maintained counts. *)
val good_count : t -> path:int -> int

(** [all_good_count t paths] is the number of intervals in which every
    path in [paths] was good.  [all_good_count t [||]] = [t_intervals]. *)
val all_good_count : t -> int array -> int

(** [smoothed_log_probs t counts] maps each all-good count to its
    add-half smoothed log-frequency [log ((count + 1/2) / (T + 1))],
    read from a table of the [T + 1] values built once per observations
    value, so it takes no [log] — exposed so callers holding
    incrementally maintained counts (the streaming engine) build
    bit-identical right-hand sides to {!log_all_good_prob}.
    @raise Invalid_argument unless every count is in [0, T]. *)
val smoothed_log_probs : t -> int array -> float array

(** [log_all_good_prob t paths] is [log ((count + 1/2) / (T + 1))] where
    [count = all_good_count t paths]. *)
val log_all_good_prob : t -> int array -> float

(** [good_frac t ~path] is the unsmoothed fraction of intervals in which
    the path was good. *)
val good_frac : t -> path:int -> float

(** [always_good t ~path] is [true] iff the path was good in every
    interval — such paths certify all their links good (Separability). *)
val always_good : t -> path:int -> bool

(** [congested_paths_at t ~interval] is the set of paths congested during
    one interval (the Boolean-Inference input [P^c(t)]). *)
val congested_paths_at : t -> interval:int -> Tomo_util.Bitset.t

(** [good_paths_at t ~interval] is its complement. *)
val good_paths_at : t -> interval:int -> Tomo_util.Bitset.t

(** [resample t rng] draws an interval bootstrap replicate: [T] intervals
    sampled from [t] with replacement (iid resampling is consistent with
    the paper's model of intervals as iid draws of the congestion
    state).  Used by {!Confidence} to put error bars on estimated
    probabilities. *)
val resample : t -> Tomo_util.Rng.t -> t
