module Bitset = Tomo_util.Bitset
module Obs = Tomo_obs
module Stream = Tomo_stream

let c_frames = Obs.Metrics.counter "net_frames_total"
let c_bytes = Obs.Metrics.counter "net_bytes_total"
let g_peers = Obs.Metrics.gauge "net_peers_active"
let h_queue = Obs.Metrics.histogram "net_queue_depth"

type policy = Block | Drop_peer

(* Raised inside a reader thread to drop its peer with a reason;
   [Quit] is the silent exit used when the hub is shutting down. *)
exception Peer_error of string
exception Quit

type peer = {
  fd : Unix.file_descr;
  queue : Bitset.t Queue.t;
  qm : Mutex.t;
  q_not_full : Condition.t;
  mutable queued : int;
  mutable name : string;  (** [""] until the peer registered *)
  mutable engine : Stream.Engine.t option;
  mutable to_skip : int;  (** re-sent ticks already in the snapshot *)
  mutable eof : bool;  (** stream ended cleanly *)
  mutable dropped : string option;
  mutable last_estimate : Stream.Engine.estimate option;
  mutable ticks : int;  (** ticks ingested from this connection *)
  mutable finalized : bool;
  mutable closed : bool;
  mutable thread : Thread.t option;
}

type t = {
  model : Tomo.Model.t;
  window : int;
  pool : Tomo_par.Pool.t option;
  queue_capacity : int;
  policy : policy;
  idle_timeout : float;
  snapshot_dir : string option;
  report_dir : string option;
  snapshot_every : int;
  bounded : bool;  (** was [max_ticks] given? *)
  budget : int Atomic.t;  (** remaining global tick budget *)
  stop : bool Atomic.t;
  m : Mutex.t;  (** guards everything below (never held with a [qm]) *)
  wake : Condition.t;  (** pokes the drain loop *)
  mutable peers : peer list;
  mutable next_anon : int;
  mutable running : bool;
  mutable s_frames : int;
  mutable s_bytes : int;
  mutable s_connected : int;
  mutable s_dropped : int;
  mutable s_ticks : int;
  mutable s_reports : int;
  mutable ticker : Thread.t option;
}

type stats = {
  frames_total : int;
  bytes_total : int;
  peers_connected : int;
  peers_active : int;
  peers_dropped : int;
  ticks_ingested : int;
  reports_written : int;
}

let create ?pool ?(queue_capacity = 64) ?(policy = Block)
    ?(idle_timeout = 0.) ?(snapshot_dir : string option)
    ?(report_dir : string option) ?(snapshot_every = 1) ?max_ticks ~model
    ~window () =
  if queue_capacity <= 0 then
    invalid_arg "Tomo_net.Hub.create: queue_capacity must be positive";
  if snapshot_every <= 0 then
    invalid_arg "Tomo_net.Hub.create: snapshot_every must be positive";
  {
    model;
    window;
    pool;
    queue_capacity;
    policy;
    idle_timeout;
    snapshot_dir;
    report_dir;
    snapshot_every;
    bounded = max_ticks <> None;
    budget = Atomic.make (Option.value ~default:max_int max_ticks);
    stop = Atomic.make false;
    m = Mutex.create ();
    wake = Condition.create ();
    peers = [];
    next_anon = 0;
    running = false;
    s_frames = 0;
    s_bytes = 0;
    s_connected = 0;
    s_dropped = 0;
    s_ticks = 0;
    s_reports = 0;
    ticker = None;
  }

let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let is_active p = Option.is_some p.engine && not p.finalized

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let refresh_peer_gauge_locked t =
  let active = List.length (List.filter is_active t.peers) in
  Obs.Metrics.set_gauge g_peers (float_of_int active)

let wake_drain t =
  Mutex.lock t.m;
  Condition.broadcast t.wake;
  Mutex.unlock t.m

let display_name p = if p.name = "" then "<unregistered>" else p.name

(* Peer names become snapshot/report filenames, so anything outside
   [A-Za-z0-9_.-] is flattened before it can traverse paths. *)
let sanitize_name s =
  let s = if String.length s > 64 then String.sub s 0 64 else s in
  let s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c
        | _ -> '_')
      s
  in
  if s = "" || s = "." || s = ".." then "anon" else s

let close_peer t p =
  locked t (fun () ->
      if not p.closed then begin
        p.closed <- true;
        (try Unix.shutdown p.fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        try Unix.close p.fd with Unix.Unix_error _ -> ()
      end)

(* ------------------------------------------------------------------ *)
(* Registration (first frame): name, snapshot restore, engine           *)
(* ------------------------------------------------------------------ *)

let register t p ~announced =
  let name, restored =
    locked t (fun () ->
        let name =
          match announced with
          | Some n -> sanitize_name n
          | None ->
              t.next_anon <- t.next_anon + 1;
              Printf.sprintf "peer-%d" t.next_anon
        in
        if List.exists (fun q -> q != p && q.name = name) t.peers then
          raise (Peer_error (Printf.sprintf "duplicate peer name %S" name));
        let fresh () =
          (Stream.Engine.create ~model:t.model ~window:t.window (), 0)
        in
        let engine, skip =
          match t.snapshot_dir with
          | Some dir ->
              let path = Filename.concat dir (name ^ ".snap") in
              if Sys.file_exists path then (
                try
                  let snap = Stream.Snapshot.load path in
                  ( Stream.Engine.of_snapshot ~model:t.model snap,
                    snap.Stream.Snapshot.ticks )
                with Failure msg ->
                  raise
                    (Peer_error
                       (Printf.sprintf "snapshot restore failed: %s" msg)))
              else fresh ()
          | None -> fresh ()
        in
        p.name <- name;
        p.engine <- Some engine;
        p.to_skip <- skip;
        refresh_peer_gauge_locked t;
        (name, skip))
  in
  Obs.Events.emit "peer_connect"
    [ ("peer", name); ("restored_ticks", string_of_int restored) ]

(* ------------------------------------------------------------------ *)
(* Reader thread: blocking read → frame decode → record parse → queue  *)
(* ------------------------------------------------------------------ *)

let enqueue t p good =
  Mutex.lock p.qm;
  let accepted =
    match t.policy with
    | Block ->
        while
          p.queued >= t.queue_capacity
          && (not (stopping t))
          && p.dropped = None
        do
          Condition.wait p.q_not_full p.qm
        done;
        if stopping t || p.dropped <> None then `Quit else `Push
    | Drop_peer ->
        if p.queued >= t.queue_capacity then `Overflow else `Push
  in
  (if accepted = `Push then begin
     Queue.add good p.queue;
     p.queued <- p.queued + 1;
     Obs.Metrics.observe h_queue (float_of_int p.queued)
   end);
  Mutex.unlock p.qm;
  match accepted with
  | `Push -> wake_drain t
  | `Quit -> raise Quit
  | `Overflow ->
      raise
        (Peer_error
           (Printf.sprintf "queue overflow: %d ticks queued (policy drop)"
              t.queue_capacity))

let feed_record t p rcd payload =
  match Stream.Record.feed rcd payload with
  | Stream.Record.Blank | Stream.Record.Header -> ()
  | Stream.Record.Paths n ->
      if n <> t.model.Tomo.Model.n_paths then
        raise
          (Peer_error
             (Printf.sprintf "peer declares %d paths but the model has %d" n
                t.model.Tomo.Model.n_paths))
  | Stream.Record.Tick good ->
      if p.to_skip > 0 then p.to_skip <- p.to_skip - 1
      else enqueue t p good

let mark_eof t p =
  p.eof <- true;
  Obs.Events.emit "peer_eof"
    [ ("peer", display_name p); ("ticks", string_of_int p.ticks) ];
  wake_drain t

let mark_dropped t p reason =
  locked t (fun () ->
      if p.dropped = None && not p.eof then begin
        p.dropped <- Some reason;
        t.s_dropped <- t.s_dropped + 1
      end);
  Obs.Events.emit "peer_dropped"
    [ ("peer", display_name p); ("reason", reason) ];
  (* A reader parked in the Block wait must re-check [dropped]. *)
  Mutex.lock p.qm;
  Condition.broadcast p.q_not_full;
  Mutex.unlock p.qm;
  wake_drain t

let reader t p () =
  let buf = Bytes.create 65536 in
  let dec = Frame.create () in
  let rcd = ref None in
  let handle_payload payload =
    match !rcd with
    | Some r -> feed_record t p r payload
    | None ->
        (* First frame: an optional [peer <name>] hello. *)
        let words =
          String.split_on_char ' ' (String.trim payload)
          |> List.filter (( <> ) "")
        in
        let announced, consume =
          match words with
          | [ "peer"; name ] -> (Some name, true)
          | _ -> (None, false)
        in
        register t p ~announced;
        let r = Stream.Record.create ~origin:("peer:" ^ p.name) () in
        rcd := Some r;
        if not consume then feed_record t p r payload
  in
  let rec loop () =
    let n =
      try Unix.read p.fd buf 0 (Bytes.length buf) with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise
            (Peer_error
               (Printf.sprintf "idle for more than %gs" t.idle_timeout))
      | Unix.Unix_error _ when stopping t -> raise Quit
    in
    if stopping t then raise Quit;
    if n = 0 then begin
      if not (Frame.at_boundary dec) then
        raise (Peer_error "connection closed mid-frame")
      else mark_eof t p
    end
    else begin
      Obs.Metrics.incr ~by:n c_bytes;
      let before = Frame.frames_decoded dec in
      Frame.feed dec buf ~len:n;
      let decoded = Frame.frames_decoded dec - before in
      Obs.Metrics.incr ~by:decoded c_frames;
      locked t (fun () ->
          t.s_bytes <- t.s_bytes + n;
          t.s_frames <- t.s_frames + decoded);
      let rec drain () =
        match Frame.next dec with
        | None -> ()
        | Some payload ->
            handle_payload payload;
            drain ()
      in
      drain ();
      loop ()
    end
  in
  (try loop () with
  | Quit -> ()
  | Peer_error msg -> mark_dropped t p msg
  | Failure msg ->
      Obs.Events.emit "frame_error"
        [ ("peer", display_name p); ("error", msg) ];
      mark_dropped t p msg
  | Unix.Unix_error (e, _, _) ->
      mark_dropped t p ("read failed: " ^ Unix.error_message e));
  close_peer t p

let attach t fd =
  if stopping t then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    if t.idle_timeout > 0. then
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.idle_timeout;
    let p =
      {
        fd;
        queue = Queue.create ();
        qm = Mutex.create ();
        q_not_full = Condition.create ();
        queued = 0;
        name = "";
        engine = None;
        to_skip = 0;
        eof = false;
        dropped = None;
        last_estimate = None;
        ticks = 0;
        finalized = false;
        closed = false;
        thread = None;
      }
    in
    locked t (fun () ->
        t.peers <- p :: t.peers;
        t.s_connected <- t.s_connected + 1);
    p.thread <- Some (Thread.create (reader t p) ())
  end

(* ------------------------------------------------------------------ *)
(* Drain loop: splice ready queues, ingest per peer over the pool       *)
(* ------------------------------------------------------------------ *)

(* Reserve up to [n] ticks from the global budget (exact [max_ticks]
   cut even with several peers draining concurrently). *)
let rec reserve t n =
  if n <= 0 then 0
  else
    let r = Atomic.get t.budget in
    let take = min n r in
    if take = 0 then 0
    else if Atomic.compare_and_set t.budget r (r - take) then take
    else reserve t n

let splice q n =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt q with
      | None -> List.rev acc
      | Some x -> go (x :: acc) (n - 1)
  in
  go [] n

let snapshot_path t p = Filename.concat (Option.get t.snapshot_dir) (p.name ^ ".snap")

let maybe_snapshot t p engine =
  match t.snapshot_dir with
  | Some _ when Stream.Engine.ticks engine mod t.snapshot_every = 0 ->
      Stream.Engine.save_snapshot engine (snapshot_path t p)
  | _ -> ()

let ingest_batch t (p, batch) =
  let engine = Option.get p.engine in
  List.iter
    (fun good ->
      (match Stream.Engine.ingest engine good with
      | Some est -> p.last_estimate <- Some est
      | None -> ());
      p.ticks <- p.ticks + 1;
      maybe_snapshot t p engine)
    batch;
  List.length batch

(* Final snapshot always; a report only when the peer's stream ended
   cleanly and the hub was not cut short by [max_ticks]. *)
let finalize t ~allow_report p =
  if not p.finalized then begin
    p.finalized <- true;
    (match p.engine with
    | Some engine -> (
        (match t.snapshot_dir with
        | Some _ when Stream.Engine.ticks engine > 0 ->
            Stream.Engine.save_snapshot engine (snapshot_path t p)
        | _ -> ());
        match (t.report_dir, p.last_estimate) with
        | Some dir, Some est
          when allow_report && p.eof && p.dropped = None ->
            Obs.Sink.write_atomic
              (Filename.concat dir (p.name ^ ".report"))
              (Stream.Engine.report_to_string ~window:t.window est);
            locked t (fun () -> t.s_reports <- t.s_reports + 1)
        | _ -> ())
    | None -> ());
    close_peer t p;
    locked t (fun () -> refresh_peer_gauge_locked t)
  end

let collect_work t =
  let peers = locked t (fun () -> t.peers) in
  List.filter_map
    (fun p ->
      if p.finalized || Option.is_none p.engine then None
      else begin
        Mutex.lock p.qm;
        let take = reserve t p.queued in
        let batch = splice p.queue take in
        p.queued <- p.queued - List.length batch;
        if batch <> [] then Condition.broadcast p.q_not_full;
        Mutex.unlock p.qm;
        if batch = [] then None else Some (p, batch)
      end)
    peers

let finalize_ready t ~allow_report =
  let peers = locked t (fun () -> t.peers) in
  List.iter
    (fun p ->
      if (not p.finalized) && Option.is_some p.engine then begin
        Mutex.lock p.qm;
        let idle = p.queued = 0 in
        Mutex.unlock p.qm;
        if idle && (p.eof || p.dropped <> None) then
          finalize t ~allow_report p
      end)
    peers

let budget_spent t = t.bounded && Atomic.get t.budget = 0

let run t =
  t.running <- true;
  t.ticker <-
    Some
      (Thread.create
         (fun () ->
           (* Periodic unconditional broadcast: heals any missed wakeup
              and surfaces [request_stop] (which, being signal-safe,
              cannot broadcast itself) within ~100 ms. *)
           while t.running do
             Thread.delay 0.1;
             wake_drain t
           done)
         ());
  let rec loop () =
    if stopping t || budget_spent t then ()
    else begin
      let work = collect_work t in
      if work <> [] then begin
        let ingested =
          Tomo_par.Pool.parallel_map ?pool:t.pool (ingest_batch t)
            (Array.of_list work)
        in
        locked t (fun () ->
            t.s_ticks <- t.s_ticks + Array.fold_left ( + ) 0 ingested);
        finalize_ready t ~allow_report:true;
        loop ()
      end
      else begin
        finalize_ready t ~allow_report:true;
        Mutex.lock t.m;
        if not (stopping t) then Condition.wait t.wake t.m;
        Mutex.unlock t.m;
        loop ()
      end
    end
  in
  loop ();
  let cut = budget_spent t in
  Atomic.set t.stop true;
  (* Release parked readers and pop the blocked ones out of read(2). *)
  let peers = locked t (fun () -> t.peers) in
  List.iter
    (fun p ->
      Mutex.lock p.qm;
      Condition.broadcast p.q_not_full;
      Mutex.unlock p.qm;
      try Unix.shutdown p.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    peers;
  List.iter
    (fun p -> match p.thread with Some th -> Thread.join th | None -> ())
    peers;
  (* On a [max_ticks] cut, queued-but-uningested ticks exist: the final
     snapshot captures exactly the ingested prefix and no report is
     written, so a restart resumes bit-identically. *)
  List.iter (fun p -> finalize t ~allow_report:(not cut) p) peers;
  t.running <- false;
  (match t.ticker with Some th -> Thread.join th | None -> ());
  t.ticker <- None

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let stats t =
  locked t (fun () ->
      {
        frames_total = t.s_frames;
        bytes_total = t.s_bytes;
        peers_connected = t.s_connected;
        peers_active = List.length (List.filter is_active t.peers);
        peers_dropped = t.s_dropped;
        ticks_ingested = t.s_ticks;
        reports_written = t.s_reports;
      })

let status_json t =
  let peers = locked t (fun () -> t.peers) in
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"peers\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Mutex.lock p.qm;
      let queued = p.queued in
      Mutex.unlock p.qm;
      let state =
        if p.finalized then "finalized"
        else if p.dropped <> None then "dropped"
        else if p.eof then "eof"
        else "active"
      in
      (* Names are sanitized to [A-Za-z0-9_.-], so no JSON escaping is
         needed. *)
      Printf.bprintf b
        "{\"name\":\"%s\",\"ticks\":%d,\"queued\":%d,\"state\":\"%s\"}"
        (display_name p) p.ticks queued state)
    (List.rev peers);
  let s = stats t in
  Printf.bprintf b
    "],\"ticks_ingested\":%d,\"frames_total\":%d,\"bytes_total\":%d,\"peers_dropped\":%d,\"reports_written\":%d}"
    s.ticks_ingested s.frames_total s.bytes_total s.peers_dropped
    s.reports_written;
  Buffer.contents b
