(** The tomo-trace v1 wire framing: length-prefixed records.

    Each frame is a 4-byte big-endian payload length followed by the
    payload bytes; a framed trace stream carries exactly the records of
    the [tomo-trace v1] file format ({!Tomo_stream.Record}), one record
    per frame, plus the optional [peer <name>] hello the ingestion
    plane uses for snapshot identity.

    {!decoder} is incremental and partial-read-tolerant: bytes may be
    fed in any fragmentation — a frame torn at every byte boundary, or
    many frames concatenated in one read — and the decoded frame
    sequence is identical ([decode ∘ encode = id], property-tested in
    [test_net]).  Oversized or zero-length frames poison the decoder:
    the offending {!feed} raises, and every later call re-raises, so a
    misbehaving peer cannot resynchronize into garbage. *)

(** Payloads above this many bytes are rejected (4 MiB — a tick record
    for a million-path trace still fits). *)
val default_max_payload : int

(** [encode payload] is the wire bytes of one frame.
    @raise Invalid_argument if [payload] is empty or longer than
    [max_payload] (default {!default_max_payload}). *)
val encode : ?max_payload:int -> string -> string

(** [encode_into buf payload] appends the frame to [buf] — how the
    [send-trace] client batches many records per [write]. *)
val encode_into : ?max_payload:int -> Buffer.t -> string -> unit

type decoder

val create : ?max_payload:int -> unit -> decoder

(** [feed dec bytes ~off ~len] consumes one received chunk.
    @raise Failure on a zero-length or oversized frame header (and on
    every call after one, see above). *)
val feed : ?off:int -> ?len:int -> decoder -> Bytes.t -> unit

val feed_string : decoder -> string -> unit

(** Next fully decoded payload, in arrival order. *)
val next : decoder -> string option

(** [at_boundary dec] is [true] iff no partial frame is buffered — a
    clean EOF must land here, otherwise the stream was truncated
    mid-frame. *)
val at_boundary : decoder -> bool

(** Fully decoded frames over the decoder's lifetime. *)
val frames_decoded : decoder -> int

(** Total bytes ever fed. *)
val bytes_fed : decoder -> int
