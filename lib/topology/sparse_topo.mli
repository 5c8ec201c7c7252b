(** Sparse topologies: synthetic stand-in for the source ISP's traceroute
    campaign (paper §3.2).

    The paper's "Sparse" topologies were assembled from traceroutes taken
    at a Tier-1 ISP; most traceroutes were incomplete and discarded, so
    the observed graph is much sparser than a full internet — few paths
    intersect one another, many links are traversed by a single path, and
    the tomography equation system has low rank relative to the number of
    links.  That regime, not any particular IP-level detail, is what
    breaks Boolean Inference, so we reproduce the regime:

    - a near-tree AS graph (preferential attachment with one peering per
      AS, plus a small fraction of extra edges),
    - a small number of vantage points,
    - destinations spread over the whole AS set,
    - per-path random destination end-hosts, so destination-edge links
      tend to be covered by a single path (chains of equal-coverage links
      appear, so Identifiability — and Identifiability++ — fail, exactly
      as the paper reports for its Sparse topologies).

    Defaults target the paper's scale: roughly 2000 AS-level links and
    1500 paths. *)

type params = {
  n_ases : int;  (** AS count (default 700) *)
  extra_edge_frac : float;  (** extra random peerings / AS (default 0.04) *)
  routers_lo : int;  (** min routers per AS (default 3) *)
  routers_hi : int;  (** max routers per AS (default 6) *)
  n_paths : int;  (** surviving traceroutes (default 1500) *)
  n_vantages : int;  (** vantage end-hosts in the source AS (default 3) *)
  border_attach_frac : float;
      (** fraction of traceroute targets whose AS-level trace ends at the
          destination AS's entry border router (default 0.5): at AS-level
          granularity most traces end on the inter-domain link into the
          destination AS; the rest terminate at an internal router and
          contribute an intra-domain tail link *)
}

val default : params

(** [generate ?params ~seed ()] builds the overlay.  The source AS is the
    highest-degree AS.  Deterministic in [seed]. *)
val generate : ?params:params -> seed:int -> unit -> Overlay.t
