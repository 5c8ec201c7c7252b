(** Combinatorial enumeration.

    Algorithm 1 of the paper enumerates correlation subsets (subsets of a
    correlation set up to a configured size) and path sets (subsets of the
    candidate path pool, in increasing size, under a count cap).  These
    helpers provide that enumeration without materializing power sets. *)

(** [choose n k] is the binomial coefficient, saturating at [max_int]
    when the computation would overflow native ints.  Overflow is
    detected {e before} each multiplication, so the result is never a
    silently wrapped value; the guard is conservative — a value whose
    intermediate product overflows saturates even if the exact result
    would fit.  [0] when [k < 0] or [k > n]. *)
val choose : int -> int -> int

(** [iter_combinations xs k f] applies [f] to every size-[k] combination
    of the elements of [xs], each passed as a fresh array in the original
    element order.  Combinations are produced in lexicographic index
    order. *)
val iter_combinations : 'a array -> int -> ('a array -> unit) -> unit

(** [combinations xs k] materializes [iter_combinations] as a list. *)
val combinations : 'a array -> int -> 'a array list

(** [iter_sized xs ~size ~limit f] applies [f] to the size-[size]
    combinations of [xs] in lexicographic index order, stopping before
    the visit that would exceed [limit] or when [f] returns [`Stop].
    Returns the number of combinations visited (each visit also counts
    into the [combin_subsets_visited] metric, like {!next}). *)
val iter_sized :
  'a array ->
  size:int ->
  limit:int ->
  ('a array -> [ `Stop | `Continue ]) ->
  int

(** [iter_sized_indices ~n ~size ~limit f] is {!iter_sized} over the
    indices [0 .. n-1] without allocating per visit: [f] receives one
    index array, ascending, that is overwritten after [f] returns. *)
val iter_sized_indices :
  n:int ->
  size:int ->
  limit:int ->
  (int array -> [ `Stop | `Continue ]) ->
  int

(** {1 Resumable subset cursor}

    Algorithm 1 tries each target variable's candidate path sets in
    increasing size and comes back to a variable many times, each time
    resuming after the last candidate it tested.  A cursor holds that
    position: the non-empty subsets of the indices [0 .. n-1] in
    increasing size (size 1 first), lexicographic index order within a
    size, up to [max_size] elements and at most [limit] visits.  It
    allocates nothing after {!cursor}. *)

type cursor

(** [cursor ~n ~max_size ~limit] is positioned before the first subset. *)
val cursor : n:int -> max_size:int -> limit:int -> cursor

(** [next c] moves to the next subset and returns its size, or [0] once
    the enumeration is exhausted or [limit] subsets have been visited
    (and on every call after that).  Each visit counts into the
    [combin_subsets_visited] metric. *)
val next : cursor -> int

(** [index c i] is the [i]-th smallest index of the current subset,
    [0 <= i <] its size. *)
val index : cursor -> int -> int
