type params = {
  n_ases : int;
  extra_edge_frac : float;
  routers_lo : int;
  routers_hi : int;
  n_paths : int;
  n_vantages : int;
  border_attach_frac : float;
}

let default =
  {
    n_ases = 700;
    extra_edge_frac = 0.04;
    routers_lo = 3;
    routers_hi = 6;
    n_paths = 1500;
    n_vantages = 3;
    border_attach_frac = 0.5;
  }

(* attach = 1 gives a tree; the extra edges make it "almost" a tree,
   matching the thin, barely-intersecting view a traceroute campaign
   produces. *)
let generate ?(params = default) ~seed () =
  Gen_common.generate ~span:"sparse_topo.generate" ~seed
    ~n_ases:params.n_ases ~attach:1 ~extra_edge_frac:params.extra_edge_frac
    ~routers_lo:params.routers_lo ~routers_hi:params.routers_hi
    ~n_paths:params.n_paths ~n_vantages:params.n_vantages
    ~border_attach_frac:params.border_attach_frac
