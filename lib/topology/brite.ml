type params = {
  n_ases : int;
  attach : int;
  extra_edge_frac : float;
  routers_lo : int;
  routers_hi : int;
  n_paths : int;
  n_vantages : int;
  border_attach_frac : float;
}

let default =
  {
    n_ases = 150;
    attach = 2;
    extra_edge_frac = 0.2;
    routers_lo = 4;
    routers_hi = 8;
    n_paths = 1500;
    n_vantages = 5;
    border_attach_frac = 0.6;
  }

let generate ?(params = default) ~seed () =
  Gen_common.generate ~span:"brite.generate" ~seed ~n_ases:params.n_ases
    ~attach:params.attach ~extra_edge_frac:params.extra_edge_frac
    ~routers_lo:params.routers_lo ~routers_hi:params.routers_hi
    ~n_paths:params.n_paths ~n_vantages:params.n_vantages
    ~border_attach_frac:params.border_attach_frac
