module Rng = Tomo_util.Rng

(* [shortest_path]'s working arrays, allocated by a graph's first search
   and reused by the later ones.  [mark.(v) = stamp] says the current
   search reached [v], so no search clears an array; [queue] holds each
   node at most once; [buf] receives a popped node's neighbours for the
   shuffle. *)
type search = {
  mark : int array;
  parent : int array;
  queue : int array;
  mutable stamp : int;
  mutable buf : int array;
}

(* [adj.(u).(0 .. deg.(u)-1)] are [u]'s neighbours in insertion order;
   the rest of [adj.(u)] is spare capacity. *)
type t = {
  n : int;
  adj : int array array;
  deg : int array;
  mutable m : int;
  mutable search : search option;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.make n [||]; deg = Array.make n 0; m = 0; search = None }

let n_nodes g = g.n

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Graph: node out of range"

let has_edge g u v =
  check g u;
  check g v;
  let a = g.adj.(u) in
  let rec go k = k >= 0 && (a.(k) = v || go (k - 1)) in
  go (g.deg.(u) - 1)

let push g u v =
  let d = g.deg.(u) in
  if d = Array.length g.adj.(u) then begin
    let a = Array.make (max 4 (2 * d)) 0 in
    Array.blit g.adj.(u) 0 a 0 d;
    g.adj.(u) <- a
  end;
  g.adj.(u).(d) <- v;
  g.deg.(u) <- d + 1

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if has_edge g u v then invalid_arg "Graph.add_edge: duplicate edge";
  push g u v;
  push g v u;
  g.m <- g.m + 1

let neighbors g u =
  check g u;
  List.init g.deg.(u) (Array.get g.adj.(u))

let degree g u =
  check g u;
  g.deg.(u)

let n_edges g = g.m

(* Each node's neighbours newest first: [Gen_common] draws a border
   router pair per edge in this order, so it is part of every overlay. *)
let edges g =
  let acc = ref [] in
  for u = 0 to g.n - 1 do
    let a = g.adj.(u) in
    for k = g.deg.(u) - 1 downto 0 do
      if u < a.(k) then acc := (u, a.(k)) :: !acc
    done
  done;
  List.rev !acc

let search_arrays g =
  match g.search with
  | Some s -> s
  | None ->
      let s =
        {
          mark = Array.make g.n 0;
          parent = Array.make g.n 0;
          queue = Array.make g.n 0;
          stamp = 0;
          buf = [||];
        }
      in
      g.search <- Some s;
      s

let shortest_path ?rng g ~src ~dst =
  check g src;
  check g dst;
  if src = dst then Some [ src ]
  else begin
    let s = search_arrays g in
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp and mark = s.mark and parent = s.parent in
    let queue = s.queue in
    mark.(src) <- stamp;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 and found = ref false in
    while (not !found) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      let d = g.deg.(u) in
      let ns =
        match rng with
        | None -> g.adj.(u)
        | Some r ->
            if Array.length s.buf < d then s.buf <- Array.make d 0;
            Array.blit g.adj.(u) 0 s.buf 0 d;
            Rng.shuffle_prefix r s.buf d;
            s.buf
      in
      for k = 0 to d - 1 do
        let v = ns.(k) in
        if mark.(v) <> stamp then begin
          mark.(v) <- stamp;
          parent.(v) <- u;
          if v = dst then found := true;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    if mark.(dst) <> stamp then None
    else begin
      let rec build v acc =
        if v = src then src :: acc else build parent.(v) (v :: acc)
      in
      Some (build dst [])
    end
  end

let connected g =
  if g.n = 0 then true
  else begin
    (* The search starts at node 0, which [queue.(0)] already holds. *)
    let visited = Array.make g.n false and queue = Array.make g.n 0 in
    visited.(0) <- true;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for k = 0 to g.deg.(u) - 1 do
        let v = g.adj.(u).(k) in
        if not visited.(v) then begin
          visited.(v) <- true;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    !tail = g.n
  end
