module Obs = Tomo_obs

let c_tasks = Obs.Metrics.counter "pool_tasks_run"
let c_batches = Obs.Metrics.counter "pool_parallel_batches"
let c_sequential = Obs.Metrics.counter "pool_sequential_batches"
let g_jobs = Obs.Metrics.gauge "pool_jobs"
let g_queue_depth = Obs.Metrics.gauge "pool_queue_depth"
let h_task_wait = Obs.Metrics.histogram "pool_task_wait_s"
let h_batch = Obs.Metrics.histogram "pool_batch_s"

(* A batch is one parallel_map call: [n] independent tasks claimed by
   index.  Workers and the submitting caller race to claim contiguous
   index chunks; the caller blocks on [done_c] (claiming whenever
   possible) until [completed = n]. *)
type batch = {
  run : int -> unit;
  n : int;
  mutable next : int;
  mutable completed : int;
  enqueued_at : float;
      (* monotonic submission time while metrics are on, else 0: the
         pool histograms time queueing from submission, not a code
         region, so they read the clock directly *)
}

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t; (* new batch available, or shutdown *)
  done_c : Condition.t; (* a task finished *)
  mutable open_batches : batch list; (* batches with unclaimed tasks *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs

(* Number of still-unclaimed tasks across open batches (for the queue
   depth gauge). Called with [t.m] held. *)
let queue_depth t =
  List.fold_left (fun acc b -> acc + (b.n - b.next)) 0 t.open_batches

(* Claim a contiguous chunk of task indices, preferring [own] so a
   nested caller always drives its own batch.  Guided self-scheduling:
   each grab takes [remaining / (2 * jobs)] indices (at least one), so a
   large batch costs O(jobs log n) claims and condition-variable
   round-trips instead of one per task, while the shrinking tail keeps
   skewed task durations balanced.  Called with [t.m] held. *)
let claim ?own t =
  let from b =
    if b.next < b.n then begin
      let start = b.next in
      let remaining = b.n - start in
      let len = min remaining (max 1 (remaining / (2 * t.jobs))) in
      b.next <- start + len;
      if b.next >= b.n then
        t.open_batches <- List.filter (fun b' -> b' != b) t.open_batches;
      Some (b, start, len)
    end
    else None
  in
  match own with
  | Some b when b.next < b.n -> from b
  | _ ->
      let rec go = function
        | [] -> None
        | b :: rest -> ( match from b with Some c -> Some c | None -> go rest)
      in
      go t.open_batches

let run_claimed t (b, start, len) =
  if b.enqueued_at > 0.0 then
    Obs.Metrics.observe h_task_wait (Obs.Clock.now () -. b.enqueued_at);
  (* [run] stores its own result/exception; it must not raise. *)
  for i = start to start + len - 1 do
    b.run i
  done;
  Obs.Metrics.incr ~by:len c_tasks;
  Mutex.lock t.m;
  b.completed <- b.completed + len;
  Condition.broadcast t.done_c;
  Mutex.unlock t.m

let worker t =
  let rec loop () =
    Mutex.lock t.m;
    let rec await () =
      match claim t with
      | Some c ->
          Mutex.unlock t.m;
          run_claimed t c;
          loop ()
      | None ->
          if t.closed then Mutex.unlock t.m
          else begin
            Condition.wait t.work t.m;
            await ()
          end
    in
    await ()
  in
  loop ()

let create ~jobs () =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      m = Mutex.create ();
      work = Condition.create ();
      done_c = Condition.create ();
      open_batches = [];
      closed = false;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  Obs.Metrics.set_gauge g_jobs (float_of_int jobs);
  t

let shutdown t =
  Mutex.lock t.m;
  let domains = t.domains in
  t.closed <- true;
  t.domains <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join domains

(* ------------------------------------------------------------------ *)
(* Default pool                                                        *)
(* ------------------------------------------------------------------ *)

let default_jobs () =
  match Sys.getenv_opt "TOMO_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          failwith
            (Printf.sprintf "TOMO_JOBS: expected a positive integer, got %S" s))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let default_pool : t option ref = ref None
let exit_hook = ref false

(* Blocked worker domains would keep the runtime alive at exit (the
   main domain joins every spawned domain on shutdown); drain whatever
   default pool is current once the main domain is done.  Every path
   that installs a default pool must call this — [set_default_jobs]
   used to skip it, so calling it before any [default ()] left worker
   domains parked on the condition variable forever and hung the
   process at exit. *)
let ensure_exit_hook () =
  if not !exit_hook then begin
    exit_hook := true;
    at_exit (fun () ->
        match !default_pool with
        | Some t -> shutdown t
        | None -> ())
  end

let default () =
  match !default_pool with
  | Some t when not t.closed -> t
  | _ ->
      let t = create ~jobs:(default_jobs ()) () in
      default_pool := Some t;
      ensure_exit_hook ();
      t

let set_default_jobs n =
  let before =
    match !default_pool with
    | Some t ->
        shutdown t;
        Some t.jobs
    | None -> None
  in
  default_pool := Some (create ~jobs:n ());
  ensure_exit_hook ();
  Obs.Events.emit "pool_resize"
    [
      ( "from",
        match before with Some j -> string_of_int j | None -> "none" );
      ("jobs", string_of_int n);
    ]

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let sequential_map f xs =
  Obs.Metrics.incr c_sequential;
  Array.map f xs

let parallel_map ?pool f xs =
  let n = Array.length xs in
  let t = match pool with Some t -> t | None -> default () in
  if t.jobs = 1 || n <= 1 then sequential_map f xs
  else begin
    let results = Array.make n None in
    let first_exn = Mutex.create () in
    let exn : (exn * Printexc.raw_backtrace) option ref = ref None in
    let run i =
      match f xs.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock first_exn;
          if !exn = None then exn := Some (e, bt);
          Mutex.unlock first_exn
    in
    let enqueued_at =
      if Obs.Metrics.enabled () then Obs.Clock.now () else 0.0
    in
    let b = { run; n; next = 0; completed = 0; enqueued_at } in
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.parallel_map: pool is shut down"
    end;
    t.open_batches <- t.open_batches @ [ b ];
    if Obs.Metrics.enabled () then
      Obs.Metrics.set_gauge g_queue_depth (float_of_int (queue_depth t));
    Condition.broadcast t.work;
    (* Participate: claim (preferring our own batch) until every task of
       [b] has completed — possibly executed by a worker. *)
    let rec drive () =
      if b.completed < b.n then
        match claim ~own:b t with
        | Some c ->
            Mutex.unlock t.m;
            run_claimed t c;
            Mutex.lock t.m;
            drive ()
        | None ->
            Condition.wait t.done_c t.m;
            drive ()
    in
    drive ();
    Mutex.unlock t.m;
    Obs.Metrics.incr c_batches;
    if b.enqueued_at > 0.0 then
      Obs.Metrics.observe h_batch (Obs.Clock.now () -. b.enqueued_at);
    (match !exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None ->
            (* only reachable when a sibling task raised first *)
            assert false)
      results
  end

let map_list ?pool f xs =
  Array.to_list (parallel_map ?pool f (Array.of_list xs))
