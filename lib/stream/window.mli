(** A bounded sliding window of measurement intervals, stored as a ring
    of per-interval {!Tomo_util.Bitset} columns (good paths per tick)
    backed by an in-place {!Tomo.Observations} row view of the same
    slots.

    Pushing a batch overwrites the slot holding the oldest interval and
    returns the evicted column, so a consumer (the engine's per-path-set
    congestion counters) can update incrementally instead of recounting
    the window.  Per-path good counts are maintained inside the
    observations themselves ({!Tomo.Observations.flip_interval_statuses}),
    and the always-good path set inside the window; a push touches only
    the paths whose status differs between the evicted and the fresh
    column.

    Slot order is ring order, not time order — every estimator read from
    the window ([all_good_count], [always_good], equation right-hand
    sides) is invariant under interval permutation, which is what makes
    the windowed estimates exactly equal to a batch run over the same
    intervals. *)

type t

(** The largest capacity a window may have: [2^16] intervals, 65 times
    the paper's [T = 1000].  A window allocates all of its slots when it
    is created (a column of [n_paths] bits per slot, and the same bits
    again in its row view), so a capacity is an allocation size.
    {!Snapshot.of_string} rejects a larger declared capacity before
    anything is allocated, and {!create} refuses one too, so every
    window the engine accepts round-trips through a snapshot. *)
val max_capacity : int

(** [create ~capacity ~n_paths] is an empty window (all paths congested
    in every slot until pushed).  @raise Invalid_argument on non-positive
    sizes or a capacity above {!max_capacity}. *)
val create : capacity:int -> n_paths:int -> t

val capacity : t -> int
val n_paths : t -> int

(** [ticks t] is the total number of batches ever pushed (not capped by
    the capacity). *)
val ticks : t -> int

(** [occupancy t] is [min (ticks t) (capacity t)]: how many slots hold
    real intervals. *)
val occupancy : t -> int

val is_full : t -> bool

(** [observations t] is the live row view over the window's slots.  The
    window mutates it in place on every {!push}; treat it as read-only
    and do not retain it across pushes when exact-interval reads
    matter. *)
val observations : t -> Tomo.Observations.t

(** [push t good] ingests one interval batch (bit [p] set iff path [p]
    good), taking ownership of [good]: the window stores it as the
    slot's column and, when the slot is next overwritten, reads it back
    to find the paths whose status changed (a word-level XOR with the
    fresh column).  Mutating [good] after the push therefore corrupts
    the window's counts and always-good set.  Returns the evicted column
    when the window was already full, [None] during warm-up.  A push
    costs O(words + changed paths).
    @raise Invalid_argument if [good] is not sized to [n_paths t]. *)
val push : t -> Tomo_util.Bitset.t -> Tomo_util.Bitset.t option

(** [column t ~slot] is the stored column of a filled slot (read-only).
    @raise Invalid_argument if the slot is not filled. *)
val column : t -> slot:int -> Tomo_util.Bitset.t

(** [iter_columns f t] applies [f] to every filled column, in slot
    order. *)
val iter_columns : (Tomo_util.Bitset.t -> unit) -> t -> unit

(** [always_good_paths t] is a fresh copy of the set of paths good in
    every filled slot, which {!push} and {!restore} maintain — O(words),
    no rescan.  It is the only observation-derived input
    {!Tomo.Algorithm1.select} depends on, so the engine re-selects only
    when this set changes. *)
val always_good_paths : t -> Tomo_util.Bitset.t

(** [restore ~capacity ~n_paths ~ticks ~columns] rebuilds a window from
    snapshot state: [columns] holds the [min ticks capacity] filled
    slots in slot order.  @raise Invalid_argument on inconsistent
    shapes, as {!create} does. *)
val restore :
  capacity:int ->
  n_paths:int ->
  ticks:int ->
  columns:Tomo_util.Bitset.t array ->
  t
