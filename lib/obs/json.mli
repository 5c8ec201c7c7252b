(** JSON string literals for the JSON the telemetry, the status views
    and the bench render by hand. *)

(** [add_string buf s] appends [s] to [buf] as a JSON string literal:
    quoted, with the double quote, the backslash and every byte below
    0x20 escaped.  Other bytes, UTF-8 included, pass through
    unchanged. *)
val add_string : Buffer.t -> string -> unit

(** [quote s] is [s] as a JSON string literal. *)
val quote : string -> string
