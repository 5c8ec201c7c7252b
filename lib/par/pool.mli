(** Fixed-size domain pool for embarrassingly parallel experiment loops.

    The experiment harness averages many independent seeds and scenario
    cells; each task derives its own {!Tomo_util.Rng} stream from the
    spec seed, so tasks share no mutable state and the parallel schedule
    cannot change the numbers — [parallel_map] is bit-identical to
    [Array.map], only faster.

    Design:
    - a fixed set of worker domains ([jobs - 1] of them) blocks on a
      condition variable waiting for batches of tasks;
    - tasks are claimed in contiguous {e chunks} (guided
      self-scheduling: each grab takes [remaining / (2 * jobs)] indices,
      at least one), so fine-grained batches pay O(jobs log n) lock and
      condition-variable round-trips rather than one per task; chunking
      only changes who runs which index, never the per-index results, so
      [-j1] and [-jN] stay bit-identical;
    - the {e caller participates}: [parallel_map] claims tasks from its
      own batch while waiting, so a task may itself call [parallel_map]
      (nested use) without deadlock — the nested caller simply drains
      its own batch, with idle workers helping;
    - results are written into a preallocated slot per index, so output
      order always matches input order regardless of completion order;
    - the first exception a task raises is re-raised in the caller (with
      its original backtrace) after the batch drains;
    - at [jobs = 1] no domains are spawned and every combinator runs
      plain sequential code.

    Observability (via {!Tomo_obs.Metrics}, off unless a sink is
    configured): counters [pool_tasks_run], [pool_parallel_batches],
    [pool_sequential_batches]; gauges [pool_jobs], [pool_queue_depth];
    histograms [pool_task_wait_s] (enqueue-to-claim latency) and
    [pool_batch_s] (whole-batch wall clock). *)

type t

(** [create ~jobs ()] spawns a pool executing up to [jobs] tasks
    concurrently ([jobs - 1] worker domains plus the calling domain).
    [jobs] is clamped to at least 1; at 1 the pool is a sequential
    fallback with no domains. *)
val create : jobs:int -> unit -> t

(** Concurrency of the pool (worker domains + the participating caller). *)
val jobs : t -> int

(** [shutdown t] asks the workers to exit and joins their domains.
    Idempotent.  Submitting to a shut-down pool raises
    [Invalid_argument]. *)
val shutdown : t -> unit

(** [default_jobs ()] is the pool size used when none is given
    explicitly: [TOMO_JOBS] if set to a positive integer, otherwise
    [max 1 (Domain.recommended_domain_count () - 1)] (one domain is left
    for the OS / the caller's siblings). *)
val default_jobs : unit -> int

(** The process-wide shared pool, created on first use with
    {!default_jobs} and shut down automatically at exit. *)
val default : unit -> t

(** [set_default_jobs n] replaces the process-wide pool with one of
    [n] jobs (shutting down the previous one, if created).  This is what
    [tomo_cli -j N] calls before running a command. *)
val set_default_jobs : int -> unit

(** [parallel_map ?pool f xs] is [Array.map f xs] with the applications
    distributed over the pool (the {!default} one unless [pool] is
    given).  Order-preserving; exceptions propagate. *)
val parallel_map : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list ?pool f xs] is [List.map f xs] through {!parallel_map}. *)
val map_list : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
