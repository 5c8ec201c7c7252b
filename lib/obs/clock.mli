(** Monotonic time for every duration the system measures.

    Wall-clock time ([Unix.gettimeofday]) can be stepped back, and a
    duration measured across the step comes out negative: it lands in a
    histogram's underflow bucket and drags its minimum and sum below
    zero.  Durations — span [duration_s] and the stage histograms
    {!Trace.with_span} feeds from the same two readings, uptimes, the
    ablation's timings — are therefore read from the monotonic clock
    (bechamel's [CLOCK_MONOTONIC] binding).  Epoch timestamps — event
    [ts], span [start_s], the snapshot age — stay on the wall clock.

    A region of the program is timed by {!Trace.with_span}, which reads
    the clock only while tracing or its histogram's metrics are on.
    Direct differences of [now] are left to uptimes, to queue waits
    that start at a submission rather than a region ([Tomo_par.Pool]),
    and to timings that are themselves a result (the ablation's seconds
    column). *)

(** [now ()] is the monotonic clock in seconds (arbitrary origin): only
    differences of two readings mean anything. *)
val now : unit -> float
