(** Dense row-major matrices over [float]: the container the dense
    oracles ({!Gauss}, {!Sparse_rref}, {!Alg2}, {!Svd}, {!Qr}) and the
    tests share.  The library keeps no dense matrix: its null-space
    basis lives in {!Tomo_linalg.Nullspace}'s tracker. *)

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
