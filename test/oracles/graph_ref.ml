module Rng = Tomo_util.Rng

type t = { n : int; adj : int list array; mutable m : int }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.make n []; m = 0 }

let n_nodes g = g.n

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Graph: node out of range"

let has_edge g u v =
  check g u;
  check g v;
  List.mem v g.adj.(u)

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if has_edge g u v then invalid_arg "Graph.add_edge: duplicate edge";
  g.adj.(u) <- v :: g.adj.(u);
  g.adj.(v) <- u :: g.adj.(v);
  g.m <- g.m + 1

let neighbors g u =
  check g u;
  List.rev g.adj.(u)

let degree g u =
  check g u;
  List.length g.adj.(u)

let n_edges g = g.m

let edges g =
  let acc = ref [] in
  for u = 0 to g.n - 1 do
    List.iter (fun v -> if u < v then acc := (u, v) :: !acc) g.adj.(u)
  done;
  List.rev !acc

let shortest_path ?rng g ~src ~dst =
  check g src;
  check g dst;
  if src = dst then Some [ src ]
  else begin
    let parent = Array.make g.n (-1) in
    let visited = Array.make g.n false in
    visited.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let ns = Array.of_list (neighbors g u) in
      (match rng with Some r -> Rng.shuffle r ns | None -> ());
      Array.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            parent.(v) <- u;
            if v = dst then found := true;
            Queue.add v queue
          end)
        ns
    done;
    if not visited.(dst) then None
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
    let visited = Array.make g.n false in
    let queue = Queue.create () in
    visited.(0) <- true;
    Queue.add 0 queue;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            incr count;
            Queue.add v queue
          end)
        g.adj.(u)
    done;
    !count = g.n
  end
