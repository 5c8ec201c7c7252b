(** Hierarchical timed spans.

    A span covers the execution of a code region.  Spans opened while
    another span is running become its children, giving a tree per
    top-level region — the instrumented pipeline renders as

    {v
    fig4.scenario                                  12.3 ms
      brite.generate                                2.1 ms
      netsim.run                                    4.0 ms
      algorithm1.select                             3.9 ms
    v}

    Tracing is off by default.  While it and metrics are disabled,
    [with_span] is a branch followed by a call of the thunk: no clock
    read, no allocation of its own.  Enable it with [set_enabled] (done
    by {!Sink.init} when [TOMO_TRACE] or [--trace] asks for it).  A span
    is also how the program times a stage for its histogram
    ([with_span ~histogram]).

    The open-span stack is per-{e domain} (domain-local storage): a task
    running on a tomo_par worker traces as its own root tree, never
    corrupting another domain's stack.  Completed roots from every
    domain merge into one process-global list, so [roots ()] sees the
    whole program; with parallelism enabled their relative order follows
    completion time rather than submission order. *)

type span = {
  name : string;
  attrs : (string * string) list;  (** in the order they were attached *)
  start_s : float;  (** seconds since the Unix epoch *)
  duration_s : float;  (** from the monotonic {!Clock}, never negative *)
  children : span list;  (** in execution order *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit

(** [with_span ?attrs ?histogram name f] runs [f ()] inside a span
    named [name].  The span is closed (and attached to its parent, or
    recorded as a root) when [f] returns or raises.  At that close,
    while {!Metrics.enabled} holds, [histogram] observes the span's
    duration, taken from the same two clock readings, whether tracing
    is on or off.  Note that an [?attrs] literal is evaluated by the
    caller even when tracing is disabled; hot call sites should omit it
    and use [add_attr] instead. *)
val with_span :
  ?attrs:(string * string) list ->
  ?histogram:Metrics.histogram ->
  string ->
  (unit -> 'a) ->
  'a

(** Attach an attribute to the innermost open span.  No-op when tracing
    is disabled or no span is open. *)
val add_attr : string -> string -> unit

(** Completed top-level spans, oldest first. *)
val roots : unit -> span list

(** Like {!roots}, but also clears the completed-root list (in-flight
    spans are untouched) — the drain a periodic flusher uses so a
    long-lived process never re-emits a span and holds no more memory
    than one flush interval's worth of roots. *)
val take_roots : unit -> span list

(** [set_max_roots (Some n)] bounds the completed-root list to the [n]
    newest roots; older ones are dropped as new roots finish (count
    them with {!dropped_roots}).  [None] (the default) keeps
    everything, which is right for batch runs but leaks in a daemon
    that never drains.  Applies retroactively to already-recorded
    roots.
    @raise Invalid_argument if [n <= 0]. *)
val set_max_roots : int option -> unit

(** Roots discarded by the {!set_max_roots} cap since the last
    {!reset}. *)
val dropped_roots : unit -> int

(** Drop all recorded and in-flight spans (and the dropped-root
    count). *)
val reset : unit -> unit
