(* Scrapeable telemetry endpoint: a minimal HTTP/1.0 server over a Unix
   or TCP socket (stdlib [Unix] + [Thread] only, no web framework)
   serving the live metrics registry and process health.

     /metrics  Prometheus text format (counters, gauges, histograms
               with cumulative power-of-two buckets)
     /healthz  JSON health view (caller-supplied body — the serve loop
               reports tick progress, window fill, snapshot age and
               the last sink error)
     /status   JSON engine-status view (caller-supplied), 404 if none

   The accept loop runs on its own systhread and only ever *reads*
   shared state — the metrics registry is already thread-safe, and the
   health/status callbacks are documented to be — so attaching an
   exporter cannot perturb engine results.  Requests are served
   serially: scrapes are small and rare, and one slow client must not
   be able to hold a second one's connection open forever (a 5 s socket
   timeout bounds the damage either way).

   The same accept loop ([serve]) takes the ingestion plane's peer
   connections: one bind, accept, EINTR retry and stop sequence for
   both sockets of a serve daemon. *)

let c_scrapes = Metrics.counter "telemetry_scrapes"
let c_scrape_errors = Metrics.counter "telemetry_scrape_errors"

(* ------------------------------------------------------------------ *)
(* Listen addresses                                                    *)
(* ------------------------------------------------------------------ *)

type listen = Unix_sock of string | Tcp of string * int

let listen_to_string = function
  | Unix_sock p -> p
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

(* "HOST:PORT" or ":PORT" is TCP; anything else is a Unix socket path,
   except a bare digit string, which is always a port on localhost, so
   "--listen 9090" does what it looks like and "--listen 99999999" is
   an error rather than a socket file of that name. *)
let listen_of_string s =
  let tcp host port =
    match int_of_string_opt port with
    | Some v when v > 0 && v < 65536 -> Ok (Tcp (host, v))
    | _ -> Error (Printf.sprintf "bad port in listen address %S" s)
  in
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') ->
      let host = String.sub s 0 i in
      tcp
        (if host = "" then "127.0.0.1" else host)
        (String.sub s (i + 1) (String.length s - i - 1))
  | None when s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s ->
      tcp "127.0.0.1" s
  | _ ->
      if s = "" then Error "empty listen address" else Ok (Unix_sock s)

(* ------------------------------------------------------------------ *)
(* Prometheus text rendering (pure, golden-tested)                     *)
(* ------------------------------------------------------------------ *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; registry names use
   dots in a few tests, so map anything else to '_'. *)
let prom_name n =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    n

let prom_float v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else
    let s = Printf.sprintf "%.17g" v in
    (* shortest round-trip representation keeps the output stable *)
    let short = Printf.sprintf "%g" v in
    if float_of_string short = v then short else s

let prometheus_of_snapshot (snap : Metrics.snapshot) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Printf.bprintf b "# TYPE %s counter\n%s %d\n" n n v)
    snap.Metrics.counters;
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Printf.bprintf b "# TYPE %s gauge\n%s %s\n" n n (prom_float v))
    snap.Metrics.gauges;
  List.iter
    (fun (name, (h : Metrics.histogram_stats)) ->
      let n = prom_name name in
      Printf.bprintf b "# TYPE %s histogram\n" n;
      let cum = ref 0 in
      List.iter
        (fun (ub, count) ->
          cum := !cum + count;
          Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" n (prom_float ub) !cum)
        h.Metrics.buckets;
      Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" n h.Metrics.count;
      Printf.bprintf b "%s_sum %s\n" n
        (prom_float (if h.Metrics.count = 0 then 0.0 else h.Metrics.sum));
      Printf.bprintf b "%s_count %d\n" n h.Metrics.count)
    snap.Metrics.histograms;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* HTTP plumbing                                                       *)
(* ------------------------------------------------------------------ *)

let default_health ~started () =
  let b = Buffer.create 64 in
  Printf.bprintf b "{\"status\":\"ok\",\"uptime_s\":%.3f"
    (Clock.now () -. started);
  Buffer.add_string b ",\"last_error\":";
  (match Sink.last_error () with
  | None -> Buffer.add_string b "null"
  | Some e -> Json.add_string b e);
  Buffer.add_char b '}';
  Buffer.contents b

let respond ~health ~status path =
  match path with
  | "/metrics" ->
      ( 200,
        "text/plain; version=0.0.4; charset=utf-8",
        prometheus_of_snapshot (Metrics.snapshot ()) )
  | "/healthz" ->
      (200, "application/json", health ())
  | "/status" -> (
      match status with
      | Some f -> (200, "application/json", f ())
      | None -> (404, "text/plain", "no status view configured\n"))
  | "/" | "" ->
      (200, "text/plain", "tomo telemetry: /metrics /healthz /status\n")
  | _ -> (404, "text/plain", "not found\n")

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | _ -> "Error"

let http_response code content_type body =
  Printf.sprintf
    "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    code (status_text code) content_type (String.length body) body

(* Read until the blank line ending the request head (or 8 KiB, or the
   socket timeout); we only ever need the request line. *)
let read_head fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf > 8192 then ()
    else
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        let have_blank =
          let rec find i =
            i + 3 < String.length s
            && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                 && s.[i + 3] = '\n')
               || find (i + 1))
          in
          find 0
        in
        if not have_blank then go ()
      end
  in
  (try go () with Unix.Unix_error _ | Sys_error _ -> ());
  Buffer.contents buf

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      let n = Unix.write fd b off (len - off) in
      if n > 0 then go (off + n)
  in
  try go 0 with Unix.Unix_error _ -> ()

let serve_client ~health ~status client =
  Unix.setsockopt_float client Unix.SO_RCVTIMEO 5.0;
  Unix.setsockopt_float client Unix.SO_SNDTIMEO 5.0;
  let head = read_head client in
  let request_line =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> (
        match String.index_opt head '\n' with
        | Some i -> String.sub head 0 i
        | None -> head)
  in
  let response =
    match String.split_on_char ' ' request_line with
    | [ "GET"; target; _ ] | [ "GET"; target ] ->
        let path =
          match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        Metrics.incr c_scrapes;
        let code, ctype, body = respond ~health ~status path in
        http_response code ctype body
    | _ :: _ :: _ ->
        Metrics.incr c_scrape_errors;
        http_response 405 "text/plain" "only GET is served here\n"
    | _ ->
        Metrics.incr c_scrape_errors;
        http_response 400 "text/plain" "malformed request\n"
  in
  write_all client response

(* ------------------------------------------------------------------ *)
(* The accept loop, shared by telemetry and ingestion                  *)
(* ------------------------------------------------------------------ *)

(* A socket bound or connected to [l] by [f]; a failure names [l]. *)
let socket_for l f =
  let sa =
    match l with
    | Unix_sock path -> Unix.ADDR_UNIX path
    | Tcp (host, port) -> (
        match Unix.gethostbyname host with
        | h -> Unix.ADDR_INET (h.Unix.h_addr_list.(0), port)
        | exception Not_found -> (
            try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
            with Failure _ ->
              failwith (listen_to_string l ^ ": unknown host")))
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  try
    f fd sa;
    fd
  with Unix.Unix_error (e, fn, _) ->
    Unix.close fd;
    raise (Unix.Unix_error (e, fn, listen_to_string l))

let connect l = socket_for l Unix.connect

let bind l =
  (match l with
  | Unix_sock path -> (
      (* A stale socket file from a previous run would make bind fail;
         only ever remove something that actually is a socket. *)
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | Tcp _ -> ());
  socket_for l (fun fd sa ->
      (match l with
      | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix_sock _ -> ());
      Unix.bind fd sa;
      Unix.listen fd 16)

type t = {
  fd : Unix.file_descr;
  listen : listen;
  events : string;  (* names the [_listening] / [_stopped] events *)
  mutable stopped : bool;
  mutable thread : Thread.t option;
}

let close_socket fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_loop t ~failure ~on_accept =
  match Unix.accept t.fd with
  | client, _ ->
      (try on_accept client
       with e ->
         Sink.record_error (failure ^ ": " ^ Printexc.to_string e);
         close_socket client);
      if not t.stopped then accept_loop t ~failure ~on_accept
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if not t.stopped then accept_loop t ~failure ~on_accept
  | exception Unix.Unix_error _ ->
      (* listening socket closed by [stop], or torn down at exit *)
      ()

let serve ~events ~failure listen ~on_accept =
  let fd = bind listen in
  let t = { fd; listen; events; stopped = false; thread = None } in
  Events.emit (events ^ "_listening") [ ("addr", listen_to_string listen) ];
  t.thread <-
    Some (Thread.create (fun () -> accept_loop t ~failure ~on_accept) ());
  t

let start ?health ?status listen =
  let health =
    match health with
    | Some f -> f
    | None -> default_health ~started:(Clock.now ())
  in
  serve ~events:"exporter" ~failure:"telemetry request failed" listen
    ~on_accept:(fun client ->
      (try serve_client ~health ~status client
       with e ->
         Metrics.incr c_scrape_errors;
         raise e);
      close_socket client)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (* Closing the listening socket pops the accept loop out of its
       blocking accept; the thread then sees [stopped] and returns. *)
    close_socket t.fd;
    (match t.listen with
    | Unix_sock path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    Option.iter Thread.join t.thread;
    Events.emit (t.events ^ "_stopped") [ ("addr", listen_to_string t.listen) ]
  end
