module Rng = Tomo_util.Rng
module Obs = Tomo_obs

let c_generated = Obs.Metrics.counter "topologies_generated"

type internet = {
  as_graph : Graph.t;
  internals : Graph.t array;
  borders : (int * int, int * int) Hashtbl.t;
}

let generate_as_graph rng ~n_ases ~attach ~extra_edge_frac =
  if n_ases < 2 then invalid_arg "generate_internet: need at least 2 ASes";
  let attach = max 1 attach in
  let g = Graph.create n_ases in
  let seed_size = min n_ases (attach + 1) in
  (* Seed: a small clique so early nodes have targets to attach to. *)
  for u = 0 to seed_size - 1 do
    for v = u + 1 to seed_size - 1 do
      Graph.add_edge g u v
    done
  done;
  for u = seed_size to n_ases - 1 do
    let targets = min attach u in
    let chosen = Hashtbl.create 4 in
    let tries = ref 0 in
    while Hashtbl.length chosen < targets && !tries < 200 do
      incr tries;
      (* Degree-weighted (preferential) attachment; +1 smooths the seed. *)
      let weights =
        Array.init u (fun v ->
            if Hashtbl.mem chosen v then 0.0
            else float_of_int (Graph.degree g v + 1))
      in
      let v = Rng.pick_weighted rng weights in
      if not (Hashtbl.mem chosen v) then begin
        Hashtbl.add chosen v ();
        Graph.add_edge g u v
      end
    done
  done;
  let extra = int_of_float (extra_edge_frac *. float_of_int n_ases) in
  let added = ref 0 and tries = ref 0 in
  while !added < extra && !tries < extra * 50 do
    incr tries;
    let u = Rng.int rng n_ases and v = Rng.int rng n_ases in
    if u <> v && not (Graph.has_edge g u v) then begin
      Graph.add_edge g u v;
      incr added
    end
  done;
  g

let generate_internal rng ~n_routers =
  let n = max 1 n_routers in
  let g = Graph.create n in
  (* Ring guarantees connectivity; chords create shared shortest-path
     segments between border pairs, i.e. intra-AS link correlations. *)
  if n > 1 then
    for u = 0 to n - 1 do
      let v = (u + 1) mod n in
      if not (Graph.has_edge g u v) then Graph.add_edge g u v
    done;
  let chords = n / 3 in
  let added = ref 0 and tries = ref 0 in
  while !added < chords && !tries < chords * 30 do
    incr tries;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Graph.has_edge g u v) then begin
      Graph.add_edge g u v;
      incr added
    end
  done;
  g

let generate_internet rng ~n_ases ~attach ~extra_edge_frac ~routers_lo
    ~routers_hi =
  if routers_lo < 1 || routers_hi < routers_lo then
    invalid_arg "generate_internet: bad router range";
  let as_graph = generate_as_graph rng ~n_ases ~attach ~extra_edge_frac in
  let internals =
    Array.init n_ases (fun _ ->
        let n_routers =
          routers_lo + Rng.int rng (routers_hi - routers_lo + 1)
        in
        generate_internal rng ~n_routers)
  in
  let borders = Hashtbl.create (Graph.n_edges as_graph) in
  List.iter
    (fun (a, b) ->
      let ra = Rng.int rng (Graph.n_nodes internals.(a)) in
      let rb = Rng.int rng (Graph.n_nodes internals.(b)) in
      Hashtbl.add borders (a, b) (ra, rb))
    (Graph.edges as_graph);
  { as_graph; internals; borders }

(* The AS of maximum peering degree: the source ISP. *)
let hub_as inet =
  let best = ref 0 in
  for v = 1 to Graph.n_nodes inet.as_graph - 1 do
    if Graph.degree inet.as_graph v > Graph.degree inet.as_graph !best then
      best := v
  done;
  !best

let border_pair inet a b =
  if a < b then Hashtbl.find inet.borders (a, b)
  else
    let rb, ra = Hashtbl.find inet.borders (b, a) in
    (ra, rb)

(* Intra-domain AS-level link from router [u] to router [v] of AS [a]:
   factors are the router-level edges of the internal shortest path, which
   intra links of the same AS share. *)
let intra_link b inet rng ~as_id ~from_r ~to_r =
  let key = Printf.sprintf "intra:%d:%d->%d" as_id from_r to_r in
  Overlay.Builder.link b ~owner:as_id ~key ~kind:Overlay.Intra
    ~factors:(fun () ->
      match
        Graph.shortest_path ~rng inet.internals.(as_id) ~src:from_r
          ~dst:to_r
      with
      | None | Some [ _ ] ->
          invalid_arg "expand_route: broken internal topology"
      | Some nodes ->
          let rec edges = function
            | x :: (y :: _ as rest) ->
                let lo = min x y and hi = max x y in
                Overlay.Builder.factor b ~owner:as_id
                  ~key:(Printf.sprintf "redge:%d-%d" lo hi)
                :: edges rest
            | _ -> []
          in
          Array.of_list (edges nodes))

let inter_link b ~from_as ~to_as =
  let key = Printf.sprintf "inter:%d->%d" from_as to_as in
  (* Owned by the downstream AS; one private factor per direction so that
     correlation sets never straddle AS boundaries. *)
  Overlay.Builder.link b ~owner:to_as ~key ~kind:Overlay.Inter
    ~factors:(fun () ->
      [| Overlay.Builder.factor b ~owner:to_as ~key:("x" ^ key) |])

(* An AS-level route (node list from the vantage AS) as AS-level link
   ids registered in [b]: an inter-domain link per AS hop, and an
   intra-domain link wherever the route moves between routers of one AS.
   [None] when the route degenerates (one AS, vantage = destination). *)
let expand_route b inet rng ~vantage_router ~dest_router ~as_route =
  match as_route with
  | [] -> None
  | [ only_as ] ->
      if vantage_router = dest_router then None
      else
        Some
          [|
            intra_link b inet rng ~as_id:only_as ~from_r:vantage_router
              ~to_r:dest_router;
          |]
  | first :: _ ->
      let acc = ref [] in
      let cur = ref vantage_router in
      let rec walk = function
        | a :: (next :: _ as rest) ->
            let exit_r, entry_r = border_pair inet a next in
            if !cur <> exit_r then
              acc :=
                intra_link b inet rng ~as_id:a ~from_r:!cur ~to_r:exit_r
                :: !acc;
            acc := inter_link b ~from_as:a ~to_as:next :: !acc;
            cur := entry_r;
            walk rest
        | [ last ] ->
            if !cur <> dest_router then
              acc :=
                intra_link b inet rng ~as_id:last ~from_r:!cur
                  ~to_r:dest_router
                :: !acc
        | [] -> ()
      in
      ignore first;
      walk as_route;
      match !acc with
      | [] -> None
      | links -> Some (Array.of_list (List.rev links))

let generate ~span ~seed ~n_ases ~attach ~extra_edge_frac ~routers_lo
    ~routers_hi ~n_paths ~n_vantages ~border_attach_frac =
  Obs.Trace.with_span span @@ fun () ->
  let rng = Rng.create seed in
  let topo_rng = Rng.split rng ~label:"internet" in
  let path_rng = Rng.split rng ~label:"paths" in
  let inet =
    generate_internet topo_rng ~n_ases ~attach ~extra_edge_frac ~routers_lo
      ~routers_hi
  in
  let source_as = hub_as inet in
  let b = Overlay.Builder.create ~n_ases ~source_as in
  let n_src_routers = Graph.n_nodes inet.internals.(source_as) in
  let vantages =
    Array.init (min n_vantages n_src_routers) (fun _ ->
        Rng.int path_rng n_src_routers)
  in
  let added = ref 0 and tries = ref 0 in
  let max_tries = n_paths * 30 in
  while !added < n_paths && !tries < max_tries do
    incr tries;
    let dest_as = Rng.int path_rng n_ases in
    if dest_as <> source_as then begin
      match
        Graph.shortest_path ~rng:path_rng inet.as_graph ~src:source_as
          ~dst:dest_as
      with
      | None -> ()
      | Some as_route -> (
          let vantage_router = Rng.choose path_rng vantages in
          (* A border-attached destination ends at the entry border of
             its AS (last hop = the inter-domain link); the others at a
             random internal router (adding an intra-domain tail). *)
          let entry_border =
            match List.rev as_route with
            | last :: prev :: _ -> Some (snd (border_pair inet prev last))
            | _ -> None
          in
          let dest_router =
            match entry_border with
            | Some r when Rng.bool path_rng ~p:border_attach_frac -> r
            | _ -> Rng.int path_rng (Graph.n_nodes inet.internals.(dest_as))
          in
          match
            expand_route b inet path_rng ~vantage_router ~dest_router
              ~as_route
          with
          | None -> ()
          | Some links -> (
              match Overlay.Builder.add_path b links with
              | Some _ -> incr added
              | None -> ()))
    end
  done;
  let ov = Overlay.Builder.finalize b in
  Obs.Metrics.incr c_generated;
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "links" (string_of_int (Overlay.n_links ov));
    Obs.Trace.add_attr "paths" (string_of_int (Overlay.n_paths ov))
  end;
  ov
