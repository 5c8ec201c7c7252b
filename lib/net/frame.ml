let default_max_payload = 4 * 1024 * 1024

let check_payload ~max_payload payload =
  let n = String.length payload in
  if n = 0 then invalid_arg "Tomo_net.Frame.encode: empty payload";
  if n > max_payload then
    invalid_arg
      (Printf.sprintf
         "Tomo_net.Frame.encode: payload of %d bytes exceeds cap %d" n
         max_payload)

let encode_into ?(max_payload = default_max_payload) buf payload =
  check_payload ~max_payload payload;
  let n = String.length payload in
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_string buf payload

let encode ?max_payload payload =
  let buf = Buffer.create (String.length payload + 4) in
  encode_into ?max_payload buf payload;
  Buffer.contents buf

(* The incremental state is just "how many header bytes so far" plus
   "how much of the announced payload so far"; feeding is a byte-wise
   fold, so any fragmentation of the input produces the same frames. *)
type decoder = {
  max_payload : int;
  header : Bytes.t;  (** 4-byte big-endian length, filling up *)
  mutable header_got : int;
  mutable body : Bytes.t;  (** scratch for the current payload *)
  mutable body_want : int;  (** announced length; 0 = reading header *)
  mutable body_got : int;
  frames : string Queue.t;
  mutable poisoned : string option;
  mutable frames_decoded : int;
  mutable bytes_fed : int;
}

let create ?(max_payload = default_max_payload) () =
  {
    max_payload;
    header = Bytes.create 4;
    header_got = 0;
    body = Bytes.create 0;
    body_want = 0;
    body_got = 0;
    frames = Queue.create ();
    poisoned = None;
    frames_decoded = 0;
    bytes_fed = 0;
  }

let poison d msg =
  d.poisoned <- Some msg;
  failwith msg

let begin_body d =
  let b = Bytes.get_uint8 d.header in
  let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  if len = 0 then poison d "frame error: zero-length frame";
  if len > d.max_payload then
    poison d
      (Printf.sprintf "frame error: %d-byte frame exceeds cap %d" len
         d.max_payload);
  d.header_got <- 0;
  d.body_want <- len;
  d.body_got <- 0;
  if Bytes.length d.body < len then d.body <- Bytes.create len

let feed ?(off = 0) ?len d bytes =
  (match d.poisoned with Some msg -> failwith msg | None -> ());
  let len = match len with Some l -> l | None -> Bytes.length bytes - off in
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    invalid_arg "Tomo_net.Frame.feed: off/len out of range";
  d.bytes_fed <- d.bytes_fed + len;
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    if d.body_want = 0 then begin
      (* Header bytes, one or more. *)
      let take = min (4 - d.header_got) (stop - !pos) in
      Bytes.blit bytes !pos d.header d.header_got take;
      d.header_got <- d.header_got + take;
      pos := !pos + take;
      if d.header_got = 4 then begin_body d
    end
    else begin
      let take = min (d.body_want - d.body_got) (stop - !pos) in
      Bytes.blit bytes !pos d.body d.body_got take;
      d.body_got <- d.body_got + take;
      pos := !pos + take;
      if d.body_got = d.body_want then begin
        Queue.add (Bytes.sub_string d.body 0 d.body_want) d.frames;
        d.frames_decoded <- d.frames_decoded + 1;
        d.body_want <- 0;
        d.body_got <- 0
      end
    end
  done

let feed_string d s = feed d (Bytes.unsafe_of_string s)
let next d = Queue.take_opt d.frames
let at_boundary d = d.header_got = 0 && d.body_want = 0

let frames_decoded d = d.frames_decoded
let bytes_fed d = d.bytes_fed
