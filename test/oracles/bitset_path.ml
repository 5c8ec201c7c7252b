module Bitset = Tomo_util.Bitset
module Combin = Tomo_util.Combin
module Metrics = Tomo_obs.Metrics
module Model = Tomo.Model
module Subsets = Tomo.Subsets
module Eqn = Tomo.Eqn

(* ------------------------------------------------------------------ *)
(* Subsets                                                             *)
(* ------------------------------------------------------------------ *)

let effective_corr_links model ~effective c =
  Array.of_list
    (List.filter (Bitset.get effective)
       (Array.to_list (Model.corr_set_links model c)))

let complement model ~effective (s : Subsets.t) =
  Array.of_list
    (List.filter
       (fun e -> not (Array.mem e s.Subsets.links))
       (Array.to_list (effective_corr_links model ~effective s.Subsets.corr)))

let candidate_paths model ~effective (s : Subsets.t) =
  let pool = Model.paths_of_links model s.Subsets.links in
  Bitset.diff_into ~into:pool
    (Model.paths_of_links model (complement model ~effective s));
  pool

let inducible model ~effective (s : Subsets.t) =
  let pool = candidate_paths model ~effective s in
  Array.for_all
    (fun e -> not (Bitset.disjoint pool model.Model.link_paths.(e)))
    s.Subsets.links

(* The library's state machine, visit for visit: by size, then
   lexicographically over each set's effective links; the visit budget,
   then the find cap, then the test; each early stop that leaves
   subsets unvisited counts once. *)
let enumerate model ~effective ~max_size ~limit_per_set =
  if max_size < 1 then invalid_arg "Bitset_path.enumerate: max_size < 1";
  if limit_per_set < 1 then invalid_arg "Bitset_path.enumerate: bad limit";
  let acc = ref [] in
  for c = 0 to Model.n_corr_sets model - 1 do
    let links = effective_corr_links model ~effective c in
    let n = Array.length links in
    if n > 0 then begin
      let budget = limit_per_set * 4 in
      let visited = ref 0 and n_found = ref 0 in
      let truncated = ref false and stop = ref false in
      let k = ref 1 in
      while (not !stop) && !k <= min max_size n do
        let remaining = budget - !visited in
        if remaining <= 0 || !n_found >= limit_per_set then begin
          truncated := true;
          stop := true
        end
        else begin
          let visited_k =
            Combin.iter_sized links ~size:!k ~limit:remaining (fun ls ->
                if !n_found >= limit_per_set then begin
                  truncated := true;
                  stop := true;
                  `Stop
                end
                else begin
                  let s = Subsets.make model ~corr:c ls in
                  if inducible model ~effective s then begin
                    acc := s :: !acc;
                    incr n_found
                  end;
                  `Continue
                end)
          in
          visited := !visited + visited_k;
          if
            (not !stop)
            && visited_k < Combin.choose n !k
            && visited_k >= remaining
          then begin
            truncated := true;
            stop := true
          end
        end;
        incr k
      done;
      if !truncated then
        Metrics.incr (Metrics.counter "subsets_enumeration_capped");
      Metrics.incr ~by:!n_found (Metrics.counter "subsets_enumerated")
    end
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Equations                                                           *)
(* ------------------------------------------------------------------ *)

type registry = {
  by_subset : (Subsets.t, int) Hashtbl.t;
  mutable subsets : Subsets.t list;  (* newest first *)
}

let registry () = { by_subset = Hashtbl.create 256; subsets = [] }
let n_vars reg = Hashtbl.length reg.by_subset
let find reg s = Hashtbl.find_opt reg.by_subset s

let add reg s =
  match find reg s with
  | Some v -> v
  | None ->
      let v = n_vars reg in
      Hashtbl.add reg.by_subset s v;
      reg.subsets <- s :: reg.subsets;
      v

let subsets reg = Array.of_list (List.rev reg.subsets)

let induced_subsets model ~effective ~links =
  let by_corr = Hashtbl.create 8 in
  let order = ref [] in
  Bitset.iter
    (fun e ->
      if Bitset.get effective e then begin
        let c = model.Model.corr_of_link.(e) in
        match Hashtbl.find_opt by_corr c with
        | Some es -> Hashtbl.replace by_corr c (e :: es)
        | None ->
            Hashtbl.add by_corr c [ e ];
            order := c :: !order
      end)
    links;
  List.rev_map
    (fun c ->
      Subsets.make model ~corr:c
        (Array.of_list (List.rev (Hashtbl.find by_corr c))))
    !order

let build_row model ~effective reg ~paths ~lookup =
  match induced_subsets model ~effective ~links:(Model.links_of_paths model paths) with
  | [] -> None
  | subsets ->
      let vars = List.map (lookup reg) subsets in
      if List.mem None vars then None
      else begin
        let vars = Array.of_list (List.map Option.get vars) in
        Array.sort compare vars;
        Some { Eqn.paths; vars }
      end

let row model ~effective reg ~paths =
  build_row model ~effective reg ~paths ~lookup:find

let row_grow model ~effective reg ~paths =
  build_row model ~effective reg ~paths ~lookup:(fun reg s ->
      Some (add reg s))

let register_single_path_vars model ~effective reg =
  let before = n_vars reg in
  for p = 0 to model.Model.n_paths - 1 do
    List.iter
      (fun s -> ignore (add reg s))
      (induced_subsets model ~effective ~links:model.Model.path_links.(p))
  done;
  n_vars reg - before
