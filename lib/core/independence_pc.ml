module Bitset = Tomo_util.Bitset
module Cgls = Tomo_linalg.Cgls
module Nullspace = Tomo_linalg.Nullspace

let compute model obs =
  let effective = Subsets.effective_links model obs in
  let n_links = model.Model.n_links in
  (* Variables: effective links only; others have good probability 1. *)
  let var_of_link = Array.make n_links (-1) in
  let n_vars = ref 0 in
  Bitset.iter
    (fun e ->
      var_of_link.(e) <- !n_vars;
      incr n_vars)
    effective;
  let n_vars = !n_vars in
  let marginals = Array.make n_links 0.0 in
  let identifiable = Array.make n_links true in
  if n_vars = 0 then
    { Pc_result.marginals; identifiable; effective; n_vars = 0; n_rows = 0 }
  else begin
    let pools = Baseline_rows.pools model ~effective in
    let rows = ref [] and rhs = ref [] in
    Array.iter
      (fun paths ->
        let links = Model.links_of_paths model paths in
        let vars = ref [] in
        Bitset.iter
          (fun e -> if var_of_link.(e) >= 0 then vars := var_of_link.(e) :: !vars)
          links;
        match !vars with
        | [] -> ()
        | vs ->
            rows := Array.of_list (List.rev vs) :: !rows;
            rhs := Observations.log_all_good_prob obs paths :: !rhs)
      pools;
    let rows = Array.of_list (List.rev !rows) in
    let b = Array.of_list (List.rev !rhs) in
    let z = Cgls.solve ~cols:n_vars rows b in
    (* Identifiability via the incidence null space of the system; the
       tracker's witness prefilter makes the redundant rows O(nnz). *)
    let tr = Nullspace.tracker n_vars in
    Array.iter (fun row -> ignore (Nullspace.add_incidence tr row)) rows;
    let determined = Nullspace.determined tr in
    for e = 0 to n_links - 1 do
      let v = var_of_link.(e) in
      if v >= 0 then begin
        marginals.(e) <- max 0.0 (min 1.0 (1.0 -. exp z.(v)));
        identifiable.(e) <- determined.(v)
      end
    done;
    {
      Pc_result.marginals;
      identifiable;
      effective;
      n_vars;
      n_rows = Array.length rows;
    }
  end
