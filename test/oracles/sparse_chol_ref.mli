(** The sparse Cholesky factor of [A·Aᵀ] as {!Tomo_linalg.Sparse_chol}
    computed it with an O(m) minimum-degree scan per pivot, list-built
    Woodbury columns and copies of [A]'s rows: the reference the
    production factor is checked against bit for bit.

    Its record has the production factor's layout field for field, so
    the two factors of one system compare as their [Marshal] bytes
    (with [No_sharing]): the elimination order, [L]'s pattern and
    values, the diagonal, the dense-column correction ([V], the core
    and its pivots), the dropped rows and the pivot ratio.  It records
    no metrics and opens no span. *)

type t

(** [factor ~cols rows], as {!Tomo_linalg.Sparse_chol.factor}.
    @raise Invalid_argument on an index outside [0, cols). *)
val factor : cols:int -> int array array -> t

(** [solve t b], as {!Tomo_linalg.Sparse_chol.solve}. *)
val solve : t -> float array -> float array
