(** Brite-like dense topologies (paper §3.2).

    The paper evaluates on topologies from the Brite generator: a full
    AS-level internet with preferential-attachment structure, yielding
    relatively dense graphs where measurement paths criss-cross.  This
    module reproduces that regime: a Barabási–Albert AS graph, router-
    level internals per AS, and end-to-end paths from vantage end-hosts
    inside the source AS to end-hosts in random destination ASes.

    Defaults target the paper's scale: roughly 1000 AS-level links and
    1500 paths. *)

type params = {
  n_ases : int;  (** AS count (default 150) *)
  attach : int;  (** preferential-attachment edges per AS (default 2) *)
  extra_edge_frac : float;  (** extra random peerings / AS (default 0.2) *)
  routers_lo : int;  (** min routers per AS (default 4) *)
  routers_hi : int;  (** max routers per AS (default 8) *)
  n_paths : int;  (** measurement paths to collect (default 1500) *)
  n_vantages : int;  (** probing end-hosts in the source AS (default 5) *)
  border_attach_frac : float;
      (** fraction of destination end-hosts attached directly at the
          entry border router (default 0.6).  Border-attached
          destinations make the inter-domain link the path's last hop,
          which keeps the dense criss-cross structure — and hence
          Identifiability++ — that the paper attributes to Brite
          topologies; router-attached destinations add the intra-domain
          tail links that edge-congestion scenarios exercise. *)
}

val default : params

(** [generate ?params ~seed ()] builds the overlay.  The source AS is the
    highest-degree AS (a tier-1 hub).  Generation is deterministic in
    [seed]. *)
val generate : ?params:params -> seed:int -> unit -> Overlay.t
