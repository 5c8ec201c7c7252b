(* Periodic sink flusher: a daemon that only exports at_exit is blind
   while it runs.  One background systhread calls [Sink.flush] every
   [period_s], so the metrics file, trace JSONL and human table stay
   current for the process's whole lifetime.  [Sink.flush] is
   thread-safe and drains spans exactly once, so the flusher composes
   with explicit flushes and the at_exit flush without duplication.

   The sleep is chopped into short naps so [stop] takes effect in at
   most [nap_s], not a whole period. *)

let nap_s = 0.05

type t = {
  period_s : float;
  mutable stopped : bool;
  mutable thread : Thread.t option;
}

let c_flushes = Metrics.counter "telemetry_flushes"

let rec loop t slept =
  if not t.stopped then
    if slept >= t.period_s then begin
      Sink.flush ();
      Metrics.incr c_flushes;
      loop t 0.0
    end
    else begin
      Thread.delay (Float.min nap_s (t.period_s -. slept));
      loop t (slept +. nap_s)
    end

let start ~period_s () =
  if not (Float.is_finite period_s) || period_s <= 0.0 then
    invalid_arg "Flusher.start: non-positive period";
  let t = { period_s; stopped = false; thread = None } in
  t.thread <- Some (Thread.create (fun () -> loop t 0.0) ());
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (match t.thread with Some th -> Thread.join th | None -> ());
    Sink.flush ()
  end
