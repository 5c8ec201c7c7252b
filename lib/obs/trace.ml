type span = {
  name : string;
  attrs : (string * string) list;
  start_s : float;
  duration_s : float;
  children : span list;
}

(* A span still running: attrs and children accumulate in reverse.
   [o_start] is the wall-clock start the span reports; its duration is
   measured on the monotonic clock by [with_span]. *)
type open_span = {
  o_name : string;
  mutable o_attrs : (string * string) list;
  o_start : float;
  mutable o_children : span list;
}

let enabled_flag = ref false

(* Each domain keeps its own open-span stack (tomo_par workers trace
   their tasks as independent roots); completed roots merge into one
   process-global list under [fin_lock]. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let fin_lock = Mutex.create ()
let finished : span list ref = ref [] (* completed roots, newest first *)
let n_finished = ref 0
let max_roots : int option ref = ref None
let dropped = ref 0
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Keep the newest [n] roots of the newest-first list.  O(n) per call,
   but only runs when the cap is exceeded and [n] is the cap. *)
let truncate_newest n l =
  let rec go i = function
    | [] -> []
    | _ when i >= n -> []
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 l

let set_max_roots cap =
  (match cap with
  | Some n when n <= 0 -> invalid_arg "Trace.set_max_roots: non-positive cap"
  | _ -> ());
  Mutex.lock fin_lock;
  max_roots := cap;
  (match cap with
  | Some n when !n_finished > n ->
      dropped := !dropped + (!n_finished - n);
      finished := truncate_newest n !finished;
      n_finished := n
  | _ -> ());
  Mutex.unlock fin_lock

let dropped_roots () = !dropped

let reset () =
  Domain.DLS.get stack_key := [];
  Mutex.lock fin_lock;
  finished := [];
  n_finished := 0;
  dropped := 0;
  Mutex.unlock fin_lock

let open_span ?attrs name =
  let stack = Domain.DLS.get stack_key in
  let o =
    {
      o_name = name;
      o_attrs = (match attrs with None -> [] | Some l -> List.rev l);
      o_start = Unix.gettimeofday ();
      o_children = [];
    }
  in
  stack := o :: !stack;
  o

let close_span o duration_s =
  let stack = Domain.DLS.get stack_key in
  (* Pop down to [o]: anything above it was left open by an escaping
     exception and is discarded with it. *)
  let rec pop = function
    | top :: rest -> if top == o then rest else pop rest
    | [] -> []
  in
  stack := pop !stack;
  let s =
    {
      name = o.o_name;
      attrs = List.rev o.o_attrs;
      start_s = o.o_start;
      duration_s;
      children = List.rev o.o_children;
    }
  in
  match !stack with
  | parent :: _ -> parent.o_children <- s :: parent.o_children
  | [] ->
      Mutex.lock fin_lock;
      finished := s :: !finished;
      incr n_finished;
      (match !max_roots with
      | Some cap when !n_finished > cap ->
          dropped := !dropped + (!n_finished - cap);
          finished := truncate_newest cap !finished;
          n_finished := cap
      | _ -> ());
      Mutex.unlock fin_lock

(* The span and its histogram share the two clock readings, so a
   stage's histogram sum is exactly the sum of its spans' durations. *)
let with_span ?attrs ?histogram name f =
  let traced = !enabled_flag in
  let timed =
    match histogram with Some _ -> Metrics.enabled () | None -> false
  in
  if not (traced || timed) then f ()
  else begin
    let o = if traced then Some (open_span ?attrs name) else None in
    let t0 = Clock.now () in
    let finish () =
      let d = Clock.now () -. t0 in
      (match histogram with Some h when timed -> Metrics.observe h d | _ -> ());
      Option.iter (fun o -> close_span o d) o
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let add_attr k v =
  if !enabled_flag then
    match !(Domain.DLS.get stack_key) with
    | o :: _ -> o.o_attrs <- (k, v) :: o.o_attrs
    | [] -> ()

let roots () =
  Mutex.lock fin_lock;
  let r = List.rev !finished in
  Mutex.unlock fin_lock;
  r

let take_roots () =
  Mutex.lock fin_lock;
  let r = List.rev !finished in
  finished := [];
  n_finished := 0;
  Mutex.unlock fin_lock;
  r
