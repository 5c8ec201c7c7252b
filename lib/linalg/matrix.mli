(** Dense row-major matrices over [float].

    The container for null-space bases: {!Nullspace.basis_of_incidence}
    and the tracker's snapshot hand out an [n_vars × nullity] matrix,
    and {!Nullspace.in_row_space} reads identifiability off it.  The
    equation systems themselves are 0/1 incidence rows held as index
    arrays ({!Sparse}). *)

type t

(** [make rows cols x] is a [rows × cols] matrix filled with [x]. *)
val make : int -> int -> float -> t

(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** [identity n] is the [n × n] identity. *)
val identity : int -> t

val rows : t -> int
val cols : t -> int

(** [get m i j] / [set m i j x]: bounds-checked element access. *)
val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit
