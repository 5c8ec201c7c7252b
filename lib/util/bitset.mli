(** Fixed-capacity mutable bit sets.

    Used throughout the tomography pipeline to store per-interval path
    statuses (a [T]-bit row per path) and link/path incidence masks.  All
    operations are total: indices are checked and out-of-range indices
    raise [Invalid_argument]. *)

type t

(** [create n] is a bit set of capacity [n] with all bits cleared. *)
val create : int -> t

(** [length t] is the capacity [t] was created with. *)
val length : t -> int

(** [set t i] sets bit [i]. *)
val set : t -> int -> unit

(** [clear t i] clears bit [i]. *)
val clear : t -> int -> unit

(** [assign t i b] sets bit [i] to [b]. *)
val assign : t -> int -> bool -> unit

(** [get t i] is the value of bit [i]. *)
val get : t -> int -> bool

(** [unsafe_set t i] / [unsafe_get t i]: bit access with no bounds
    check, for inner-loop kernels whose indices are validated once
    outside the loop (e.g. the netsim column→row transpose).
    Out-of-range indices are undefined behaviour. *)
val unsafe_set : t -> int -> unit

val unsafe_get : t -> int -> bool

(** [set_all t] sets every bit. *)
val set_all : t -> unit

(** [clear_all t] clears every bit. *)
val clear_all : t -> unit

(** [copy t] is a fresh bit set equal to [t]. *)
val copy : t -> t

(** [count t] is the number of set bits. *)
val count : t -> int

(** [is_empty t] is [true] iff no bit is set. *)
val is_empty : t -> bool

(** [equal a b] is [true] iff [a] and [b] have the same capacity and the
    same bits set. *)
val equal : t -> t -> bool

(** [copy_into ~into src] overwrites [into] with the bits of [src]
    without allocating (a word-level blit).
    @raise Invalid_argument if capacities differ. *)
val copy_into : into:t -> t -> unit

(** [inter_into ~into src] replaces [into] with [into ∧ src].
    @raise Invalid_argument if capacities differ. *)
val inter_into : into:t -> t -> unit

(** [union_into ~into src] replaces [into] with [into ∨ src].
    @raise Invalid_argument if capacities differ. *)
val union_into : into:t -> t -> unit

(** [diff_into ~into src] replaces [into] with [into ∧ ¬src].
    @raise Invalid_argument if capacities differ. *)
val diff_into : into:t -> t -> unit

(** [xor_into ~into src] replaces [into] with [into ⊕ src]: the bits
    where the two sets differ.
    @raise Invalid_argument if capacities differ. *)
val xor_into : into:t -> t -> unit

(** [inter a b] is a fresh bit set [a ∧ b]. *)
val inter : t -> t -> t

(** [union a b] is a fresh bit set [a ∨ b]. *)
val union : t -> t -> t

(** [diff a b] is a fresh bit set [a ∧ ¬b]. *)
val diff : t -> t -> t

(** [count_inter a b] is [count (inter a b)] without allocating. *)
val count_inter : t -> t -> int

(** [disjoint a b] is [true] iff [a] and [b] share no set bit. *)
val disjoint : t -> t -> bool

(** [subset a b] is [true] iff every bit set in [a] is set in [b]. *)
val subset : t -> t -> bool

(** [iter f t] applies [f] to the index of every set bit, in increasing
    order.  Cost is proportional to the number of words plus the number
    of set bits (lowest-set-bit extraction), not to the capacity. *)
val iter : (int -> unit) -> t -> unit

(** [iter_words f t] applies [f w word] to every packed word in index
    order, including zero words.  Bit [b] of word [w] is bit
    [w * word_bits + b] of the set; bits at or beyond [length t] in the
    last word are always zero (the tail invariant). *)
val iter_words : (int -> int -> unit) -> t -> unit

(** [fold_words f init t] folds [f acc w word] over the packed words in
    index order (same conventions as {!iter_words}). *)
val fold_words : ('a -> int -> int -> 'a) -> 'a -> t -> 'a

(** [word_bits] is the number of bits per packed word ([Sys.int_size]). *)
val word_bits : int

(** [words t] is [t]'s packed words themselves, not a copy (same
    conventions as {!iter_words}), for a kernel that tests many masks
    against [t] on the words each mask occupies ({!occupied_words}): one
    call per set, then plain array reads.  Read it; never write it, which
    would change [t] and could break the tail invariant. *)
val words : t -> int array

(** [occupied_words ~len sets] is, flat over the index sets [sets], the
    nonzero packed words each would have as a set of capacity [len]:
    [(ptr, word, bits)] where set [i] contributes [bits.(p)] at word
    index [word.(p)] for [p] from [ptr.(i)] to [ptr.(i + 1) - 1].  Each
    run of a set's indices that fall in one word gives one entry, so a
    set whose indices ascend lists each word it occupies once, in
    ascending word index; in any order, the union of a set's entries is
    the set.  Built once per family of masks, for a kernel that tests
    them against other sets' {!words}.
    @raise Invalid_argument if an index is outside [0, len). *)
val occupied_words :
  len:int -> int array array -> int array * int array * int array

(** [popcount w] is the number of set bits of the packed word [w], for
    kernels that keep their own word arrays. *)
val popcount : int -> int

(** [invariant t] is [true] iff the internal tail invariant holds: every
    bit at index ≥ [length t] in the last packed word is zero.  Exposed
    for the property-test battery; every exported operation preserves
    it. *)
val invariant : t -> bool

(** [fold f init t] folds [f] over the indices of set bits in increasing
    order. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [to_list t] is the increasing list of set-bit indices. *)
val to_list : t -> int list

(** [of_list n l] is a capacity-[n] bit set with exactly the bits in [l]
    set. *)
val of_list : int -> int list -> t

(** [to_string t] is [t]'s bits, eight to a byte: bit [i] is bit
    [i mod 8] of byte [i / 8], in [(length t + 7) / 8] bytes.  Two sets
    of one capacity are equal iff their strings are, so the string can
    key a hash table. *)
val to_string : t -> string

(** [pp] prints a bit set as the list of its set indices. *)
val pp : Format.formatter -> t -> unit
