(** Reproducible pseudo-random number generation.

    Every stochastic component of the reproduction (topology generation,
    congestion scenarios, packet drops) draws from an explicit [Rng.t] so
    that experiments are replayable from a single integer seed.  [split]
    derives statistically independent child generators, which lets the
    experiment harness give each scenario and each figure its own stream
    without cross-contamination when one component changes how many draws
    it makes. *)

type t

(** [create seed] is a fresh generator determined by [seed]. *)
val create : int -> t

(** [split t ~label] derives a child generator from [t]'s seed and
    [label].  The same [(seed, label)] pair always yields the same child;
    different labels yield independent streams.  The child seed is
    produced by a full-width splitmix64-style finalizer over the parent
    seed and an FNV-1a hash of the label, so thousands of parallel task
    labels (one per scenario cell or averaged seed) do not collide the
    way a truncated [Hashtbl.hash] would. *)
val split : t -> label:string -> t

(** [split_int t key] derives a child generator keyed by an integer —
    the allocation-free analogue of [split] for loops that need one
    independent stream per index (one per simulated interval, say).
    The same [(seed, key)] pair always yields the same child; the
    derivation depends only on [t]'s seed, never on how many draws [t]
    has made, so children can be derived in any order (or in parallel)
    without perturbing each other. *)
val split_int : t -> int -> t

(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [uniform t ~lo ~hi] is uniform in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [bool t ~p] is [true] with probability [p] (clamped to [0,1]). *)
val bool : t -> p:float -> bool

(** [shuffle t a] permutes [a] in place, uniformly. *)
val shuffle : t -> 'a array -> unit

(** [choose t a] is a uniformly chosen element of [a].
    @raise Invalid_argument on an empty array. *)
val choose : t -> 'a array -> 'a

(** [sample t a k] is [k] distinct elements of [a], uniformly without
    replacement.  @raise Invalid_argument if [k > Array.length a] or
    [k < 0]. *)
val sample : t -> 'a array -> int -> 'a array

(** [pick_weighted t weights] is an index sampled proportionally to
    [weights] (non-negative, not all zero). *)
val pick_weighted : t -> float array -> int
