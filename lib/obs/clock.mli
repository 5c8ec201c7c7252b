(** Monotonic time for every duration the system measures.

    Wall-clock time ([Unix.gettimeofday]) can be stepped back, and a
    duration measured across the step comes out negative: it lands in a
    histogram's underflow bucket and drags its minimum and sum below
    zero.  Durations — stage histograms, span [duration_s], uptimes,
    the ablation's timings — are therefore read from the monotonic
    clock (bechamel's [CLOCK_MONOTONIC] binding).  Epoch timestamps —
    event [ts], span [start_s], the snapshot age — stay on the wall
    clock.

    [start] and [observe_since] touch the clock only while
    {!Metrics.enabled} holds, so timing a stage costs a branch when
    metrics are off. *)

(** [now ()] is the monotonic clock in seconds (arbitrary origin): only
    differences of two readings mean anything. *)
val now : unit -> float

(** [start ()] is the monotonic clock in seconds (arbitrary origin)
    while metrics are enabled, else [0.0] without reading the clock. *)
val start : unit -> float

(** [observe_since h t0] records the seconds elapsed since [t0] into
    [h] while metrics are enabled.  A [t0] of [0.0] (taken while
    metrics were off) is never recorded. *)
val observe_since : Metrics.histogram -> float -> unit
