module Bitset = Tomo_util.Bitset

(* Global cap on the pairs in one pool. *)
let max_pairs = 30_000

let pools model ~effective =
  let singles = ref [] in
  for p = model.Model.n_paths - 1 downto 0 do
    if not (Bitset.disjoint model.Model.path_links.(p) effective) then
      singles := [| p |] :: !singles
  done;
  let seen = Hashtbl.create 1024 in
  let pairs = ref [] and n_pairs = ref 0 in
  let per_link_cap = 300 in
  let add_pair a b =
    let a, b = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      pairs := [| a; b |] :: !pairs;
      incr n_pairs;
      true
    end
    else false
  in
  (* Cross pairs over links of the same correlation set: for each pair of
     effective links of one set, a few path pairs that cover one link
     each. *)
  let cross_pairs_per_link_pair = 5 in
  (try
     for c = 0 to Model.n_corr_sets model - 1 do
       let eff_links =
         Array.of_list
           (List.filter (Bitset.get effective)
              (Array.to_list (Model.corr_set_links model c)))
       in
       let n = Array.length eff_links in
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           let ps_a = Bitset.to_list model.Model.link_paths.(eff_links.(i)) in
           let ps_b = Bitset.to_list model.Model.link_paths.(eff_links.(j)) in
           let added = ref 0 in
           List.iter
             (fun p ->
               List.iter
                 (fun q ->
                   if !added < cross_pairs_per_link_pair && add_pair p q
                   then begin
                     incr added;
                     if !n_pairs >= max_pairs then raise Exit
                   end)
                 ps_b)
             ps_a
         done
       done
     done
   with Exit -> ());
  (try
     for e = 0 to model.Model.n_links - 1 do
       if Bitset.get effective e then begin
         let arr = Array.of_list (Bitset.to_list model.Model.link_paths.(e)) in
         let k = Array.length arr in
         if k >= 2 then begin
           let from_link = ref 0 in
           (try
              for i = 0 to k - 1 do
                for j = i + 1 to k - 1 do
                  if add_pair arr.(i) arr.(j) then begin
                    incr from_link;
                    if !n_pairs >= max_pairs then raise Exit;
                    if !from_link >= per_link_cap then raise Not_found
                  end
                done
              done
            with Not_found -> ())
         end
       end
     done
   with Exit -> ());
  Array.of_list (!singles @ List.rev !pairs)
