module Bitset = Tomo_util.Bitset
module Obs = Tomo_obs

let c_saved = Obs.Metrics.counter "stream_snapshots_saved"
let c_restored = Obs.Metrics.counter "stream_snapshots_restored"

type t = {
  n_paths : int;
  capacity : int;
  ticks : int;
  columns : Bitset.t array;  (* the filled slots, in slot order *)
}

let capture window =
  {
    n_paths = Window.n_paths window;
    capacity = Window.capacity window;
    ticks = Window.ticks window;
    columns =
      Array.init (Window.occupancy window) (fun slot ->
          Bitset.copy (Window.column window ~slot));
  }

let window_of t =
  Obs.Metrics.incr c_restored;
  Window.restore ~capacity:t.capacity ~n_paths:t.n_paths ~ticks:t.ticks
    ~columns:(Array.map Bitset.copy t.columns)

(* ------------------------------------------------------------------ *)
(* Serialization: versioned text payload + FNV-1a 64 checksum           *)
(* ------------------------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let payload t =
  let buf = Buffer.create (64 + (Array.length t.columns * (t.n_paths + 16))) in
  Buffer.add_string buf "tomo-snapshot v1\n";
  Buffer.add_string buf
    (Printf.sprintf "paths %d capacity %d ticks %d\n" t.n_paths t.capacity
       t.ticks);
  Array.iteri
    (fun slot col ->
      let bits = Bytes.make t.n_paths '0' in
      Bitset.iter (fun p -> Bytes.set bits p '1') col;
      Buffer.add_string buf
        (Printf.sprintf "col %d %s\n" slot (Bytes.to_string bits)))
    t.columns;
  Buffer.contents buf

let to_string t =
  let p = payload t in
  Printf.sprintf "%schecksum fnv1a64 %016Lx\n" p (fnv1a64 p)

let corrupt ~filename fmt =
  Format.kasprintf
    (fun msg -> failwith (Printf.sprintf "%s: corrupted snapshot: %s" filename msg))
    fmt

let of_string ?(filename = "<string>") s =
  (* The checksum line covers every byte before it; locate it first so a
     torn write (partial file, no trailer) is rejected before parsing. *)
  let marker = "checksum fnv1a64 " in
  let marker_at =
    let rec find i =
      if i < 0 then None
      else if
        i + String.length marker <= String.length s
        && String.sub s i (String.length marker) = marker
        && (i = 0 || s.[i - 1] = '\n')
      then Some i
      else find (i - 1)
    in
    find (String.length s - 1)
  in
  let payload_s, declared =
    match marker_at with
    | None -> corrupt ~filename "missing checksum trailer"
    | Some i ->
        let rest =
          String.sub s
            (i + String.length marker)
            (String.length s - i - String.length marker)
        in
        let hex = String.trim rest in
        let declared =
          try Int64.of_string ("0x" ^ hex)
          with _ -> corrupt ~filename "malformed checksum %S" hex
        in
        (String.sub s 0 i, declared)
  in
  let actual = fnv1a64 payload_s in
  if actual <> declared then
    corrupt ~filename "checksum mismatch (declared %016Lx, computed %016Lx)"
      declared actual;
  let lines =
    String.split_on_char '\n' payload_s |> List.filter (fun l -> l <> "")
  in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let int_of w =
    match int_of_string_opt w with
    | Some v -> v
    | None -> corrupt ~filename "expected integer, got %S" w
  in
  match lines with
  | version :: header :: cols when version = "tomo-snapshot v1" ->
      let n_paths, capacity, ticks =
        match words header with
        | [ "paths"; n; "capacity"; w; "ticks"; k ] ->
            (int_of n, int_of w, int_of k)
        | _ -> corrupt ~filename "bad header %S" header
      in
      if n_paths <= 0 || capacity <= 0 || ticks < 0 then
        corrupt ~filename "non-positive dimensions in header";
      if capacity > Window.max_capacity then
        corrupt ~filename "capacity %d above the largest window (%d)" capacity
          Window.max_capacity;
      let filled = min ticks capacity in
      let columns = Array.make filled (Bitset.create 1) in
      let seen = Array.make filled false in
      List.iter
        (fun line ->
          match words line with
          | [ "col"; slot; bits ] ->
              let slot = int_of slot in
              if slot < 0 || slot >= filled then
                corrupt ~filename "column slot %d out of range [0, %d)" slot
                  filled;
              if seen.(slot) then corrupt ~filename "duplicate slot %d" slot;
              if String.length bits <> n_paths then
                corrupt ~filename
                  "ragged column %d: expected %d status characters, got %d"
                  slot n_paths (String.length bits);
              let b = Bitset.create n_paths in
              String.iteri
                (fun p c ->
                  match c with
                  | '1' -> Bitset.set b p
                  | '0' -> ()
                  | c -> corrupt ~filename "bad status character %C" c)
                bits;
              seen.(slot) <- true;
              columns.(slot) <- b
          | _ -> corrupt ~filename "unrecognized line %S" line)
        cols;
      if not (Array.for_all Fun.id seen) then
        corrupt ~filename "truncated snapshot: expected %d columns" filled;
      { n_paths; capacity; ticks; columns }
  | first :: _ -> corrupt ~filename "unknown snapshot format: %S" first
  | [] -> corrupt ~filename "empty snapshot"

(* Wall-clock of the last successful [save] in this process, feeding the
   exporter's snapshot-age health field.  A single boxed-ref store, so a
   concurrent reader on the exporter thread sees either the old or the
   new timestamp, never a torn one. *)
let last_saved : float option ref = ref None
let last_saved_at () = !last_saved

(* Write-to-temp then rename, so a crash mid-save (the scenario snapshots
   exist for) can never leave a half-written file at the target path. *)
let save path t =
  Obs.Sink.write_atomic path (to_string t);
  Obs.Metrics.incr c_saved;
  last_saved := Some (Unix.gettimeofday ());
  Obs.Events.emit "snapshot_written"
    [ ("path", path); ("ticks", string_of_int t.ticks) ]

let load path =
  let ic = open_in path in
  let t =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string ~filename:path (In_channel.input_all ic))
  in
  Obs.Events.emit "snapshot_restored"
    [ ("path", path); ("ticks", string_of_int t.ticks) ];
  t
