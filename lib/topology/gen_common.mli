(** Shared machinery for the topology generators: a two-level "internet"
    (AS-level peering graph + per-AS router-level internals), the
    expansion of AS-level routes into AS-level link sequences backed by
    router-level factors, and the path sampler over both.

    Both the Brite-like generator and the Sparse (traceroute-campaign)
    generator drive this module; they differ only in their parameters,
    above all in how many peerings each new AS attaches with. *)

type internet = {
  as_graph : Graph.t;  (** peering relationships between ASes *)
  internals : Graph.t array;
      (** per-AS router-level topology, local router ids [0..r-1] *)
  borders : (int * int, int * int) Hashtbl.t;
      (** AS adjacency [(a, b)] with [a < b] → (border router in [a],
          border router in [b]) *)
}

(** [generate_internet rng ~n_ases ~attach ~extra_edge_frac ~routers_lo
    ~routers_hi] builds a random internet:

    - the AS graph grows by preferential attachment, each new AS peering
      with [attach] existing ASes (degree-weighted), then
      [extra_edge_frac · n_ases] extra random peerings are added;
    - each AS gets a connected internal router graph (ring plus random
      chords) with between [routers_lo] and [routers_hi] routers;
    - each peering is pinned to one border router on each side. *)
val generate_internet :
  Tomo_util.Rng.t ->
  n_ases:int ->
  attach:int ->
  extra_edge_frac:float ->
  routers_lo:int ->
  routers_hi:int ->
  internet

(** [generate ~span ~seed ~n_ases ~attach ~extra_edge_frac ~routers_lo
    ~routers_hi ~n_paths ~n_vantages ~border_attach_frac] builds an
    overlay inside span [span], deterministically in [seed]:

    - the internet of {!generate_internet};
    - the source AS is the AS of maximum peering degree, with
      [n_vantages] vantage routers drawn inside it;
    - up to [n_paths] paths, each from a random vantage along a shortest
      AS route to a random destination AS, ending at that AS's entry
      border router with probability [border_attach_frac] and at a
      random internal router otherwise.  Consecutive ASes contribute an
      inter-domain link (owned by the downstream AS, one private
      factor); movement between routers inside an AS contributes an
      intra-domain link backed by the router-level edges of its internal
      shortest path, so intra-domain links of one AS share factors — the
      correlation ground truth.

    Counts [topologies_generated]. *)
val generate :
  span:string ->
  seed:int ->
  n_ases:int ->
  attach:int ->
  extra_edge_frac:float ->
  routers_lo:int ->
  routers_hi:int ->
  n_paths:int ->
  n_vantages:int ->
  border_attach_frac:float ->
  Overlay.t
