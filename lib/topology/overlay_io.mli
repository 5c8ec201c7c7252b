(** Plain-text serialization of overlays.

    A monitoring deployment measures paths continuously but re-derives
    the topology rarely; persisting the overlay lets operators pin the
    exact graph a report was computed against (and lets experiments be
    archived/replayed).  The format is line-oriented and versioned:

    {v
    tomo-overlay v1
    ases <n> source <as>
    factors <n>
    factor <id> <owner-as>          (one per factor)
    links <n>
    link <id> <owner-as> inter|intra <factor-id>...
    paths <n>
    path <id> <link-id>...
    v} *)

(** [write ppf overlay] serializes. *)
val write : Format.formatter -> Overlay.t -> unit

(** [to_string overlay] serializes to a string. *)
val to_string : Overlay.t -> string

(** [of_string s] parses and validates.  The [factors] and [paths]
    lines must declare as many factors and paths as the lines that
    follow, and at least one path.
    @raise Failure with a line-anchored message on malformed input. *)
val of_string : string -> Overlay.t

(** [save path overlay] / [load path]: file convenience wrappers. *)
val save : string -> Overlay.t -> unit

val load : string -> Overlay.t
