(** Durable engine state: everything a restarted server needs to resume
    the stream bit-identically.

    A snapshot captures the sliding window (ring columns in slot order)
    plus the global tick counter.  Nothing else is needed: the engine's
    cached selection and per-row counts are deterministic functions of
    the window contents, so {!Engine.of_snapshot} rebuilds them and the
    subsequent estimates are bit-for-bit equal to an uninterrupted run
    (asserted by [test_stream]'s qcheck property and the CI smoke job).

    Serialized as versioned text with an FNV-1a 64 checksum trailer
    covering every preceding byte:

    {v
    tomo-snapshot v1
    paths <n> capacity <w> ticks <k>
    col <slot> <status-string>       (one per filled slot)
    checksum fnv1a64 <16 hex digits>
    v}

    {!save} writes to a temp file and renames, so a crash mid-save never
    corrupts the previous snapshot; {!load} rejects torn, truncated or
    bit-flipped files with [Failure "...: corrupted snapshot: ..."]. *)

type t = {
  n_paths : int;
  capacity : int;
  ticks : int;
  columns : Tomo_util.Bitset.t array;
}

(** [capture window] copies the window state out (the live window may
    keep mutating afterwards). *)
val capture : Window.t -> t

(** [window_of t] rebuilds a live window. *)
val window_of : t -> Window.t

val to_string : t -> string

(** @raise Failure on any corruption: missing/malformed/mismatching
    checksum, bad header (a capacity above {!Window.max_capacity}
    included), ragged/duplicate/missing columns. *)
val of_string : ?filename:string -> string -> t

(** Atomic (write + rename) save.  Emits a [snapshot_written] event and
    stamps {!last_saved_at}. *)
val save : string -> t -> unit

(** Emits a [snapshot_restored] event on success. *)
val load : string -> t

(** Wall-clock time of the last successful {!save} in this process
    ([None] if none yet) — the exporter derives the [/healthz]
    snapshot-age field from it.  Safe to read from another thread. *)
val last_saved_at : unit -> float option
