(** Incidence rows.

    Every equation the tomography pipeline builds is a 0/1 incidence
    row over correlation-subset variables, held as the array of its
    column indices.  The kernels that take such rows ({!Cgls} and the
    seed elimination in {!Nullspace.of_incidence}) check and
    order them here, so they fail with one set of messages. *)

(** [incidence_row ~cols r] is the incidence row [r] with its indices
    in ascending order: [r] itself when it is already strictly
    ascending, otherwise a sorted copy ([r] is never modified).
    @raise Invalid_argument on an index outside [\[0, cols)] or a
    repeated index. *)
val incidence_row : cols:int -> int array -> int array
