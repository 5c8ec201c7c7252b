(** The [tomo-trace v1] record grammar, shared by every transport.

    A trace stream is a sequence of text records:

    {v
    tomo-trace v1          (header, exactly once, first)
    paths <n>              (path count, exactly once, second)
    tick <i> <statuses>    (one per interval, i ascending from 0)
    v}

    The file/stdin replay source ({!Source.of_trace_file}) feeds one
    {e line} per record; the socket ingestion plane ([Tomo_net]) feeds
    one {e frame payload} per record.  Both go through this parser, so
    the two transports cannot drift: a malformed record produces the
    same [Failure] with the same [origin:line]-anchored message whether
    it arrived from a file or a peer. *)

type t

type event =
  | Blank  (** empty (or all-whitespace) record; skipped *)
  | Header  (** the [tomo-trace v1] magic was accepted *)
  | Paths of int  (** the declared path count *)
  | Tick of Tomo_util.Bitset.t
      (** one interval batch, bit [p] set iff path [p] measured good *)

(** [create ~origin ()] is a parser expecting the header record next.
    [origin] (default ["<record>"]) anchors diagnostics — a file path
    for replay, a peer name for sockets. *)
val create : ?origin:string -> unit -> t

(** The tick id the next [tick] record must carry. *)
val next_tick : t -> int

(** [feed t record] parses one record (leading/trailing whitespace is
    trimmed first).
    @raise Failure on malformed input, out-of-order or ragged ticks,
    or records violating the header/paths/ticks order — anchored at
    [origin:line]. *)
val feed : t -> string -> event

(** [fail_at ~origin ~lineno fmt] raises [Failure "origin:lineno: ..."]
    — the anchored-diagnostic convention shared by the replay sources
    and the socket decoder. *)
val fail_at :
  origin:string -> lineno:int -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [fail t fmt] is {!fail_at} at the parser's current position. *)
val fail : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
