module Bitset = Tomo_util.Bitset

type chain = {
  var : int;
  size : int;
  witnesses : int array array;
  quotients : int array;
}

type link = Certified_good | Uncovered | Singleton of int | Chain of chain
type t = { entries : link array; link_identifiable : bool array }

(* The first witness pair (p ∋ a, q ∋ b) in sweep order that separates
   the two links (p ∌ b, q ∌ a, so p ≠ q: a path containing both cannot
   tell their congestion apart) and shares no other effective link (only
   shared effective links can fake a dependence between the witnesses;
   exonerated shared links never congest).  Sweeping all pairs and
   keeping the first one of fewest shared effective links, as the
   dependence reading is defined, ends on this pair if it exists and on
   no clean pair otherwise, so the sweep stops here.  One scratch set
   serves every pair. *)
let clean_witness model ~effective ~scratch a b =
  let path_links = model.Model.path_links in
  let found = ref None in
  (try
     Bitset.iter
       (fun p ->
         if not (Bitset.get path_links.(p) b) then
           Bitset.iter
             (fun q ->
               if not (Bitset.get path_links.(q) a) then begin
                 Bitset.copy_into ~into:scratch path_links.(p);
                 Bitset.inter_into ~into:scratch path_links.(q);
                 Bitset.inter_into ~into:scratch effective;
                 (* the links under test sit on both sides by
                    construction, so discount them *)
                 Bitset.clear scratch a;
                 Bitset.clear scratch b;
                 if Bitset.is_empty scratch then begin
                   found := Some [| p; q |];
                   raise Exit
                 end
               end)
             model.Model.link_paths.(b))
       model.Model.link_paths.(a)
   with Exit -> ());
  !found

let build model ~effective registry ~identifiable =
  let n_links = model.Model.n_links in
  let n_vars = Eqn.n_vars registry in
  let links_of v = (Eqn.subset_of_var registry v).Subsets.links in
  (* Smallest registered variable containing each link, the first in
     registry order among equally small ones: a registered singleton is
     the only size-1 variable containing its link. *)
  let best = Array.make n_links (-1) in
  let best_size = Array.make n_links max_int in
  for v = 0 to n_vars - 1 do
    let links = links_of v in
    let size = Array.length links in
    Array.iter
      (fun e ->
        if size < best_size.(e) then begin
          best.(e) <- v;
          best_size.(e) <- size
        end)
      links
  done;
  let is_chain e =
    Bitset.get effective e && best.(e) >= 0 && best_size.(e) > 1
  in
  (* Quotient pairs: identifiable B ∪ {e} over identifiable B, collected
     in ascending variable order. *)
  let quotients = Array.make n_links [] in
  for v = 0 to n_vars - 1 do
    let s = Eqn.subset_of_var registry v in
    let links = s.Subsets.links in
    if identifiable.(v) && Array.length links >= 2 then
      Array.iter
        (fun e ->
          if is_chain e then
            let b_links =
              Array.of_list
                (List.filter (fun x -> x <> e) (Array.to_list links))
            in
            match
              Eqn.find registry
                (Subsets.make model ~corr:s.Subsets.corr b_links)
            with
            | Some vb when identifiable.(vb) ->
                quotients.(e) <- vb :: v :: quotients.(e)
            | Some _ | None -> ())
        links
  done;
  let scratch = Bitset.create n_links in
  let entries =
    Array.init n_links (fun e ->
        if not (Bitset.get effective e) then Certified_good
        else if best.(e) < 0 then Uncovered
        else if best_size.(e) = 1 then Singleton best.(e)
        else
          let var = best.(e) in
          let witnesses =
            Array.fold_left
              (fun acc x ->
                if x = e then acc
                else
                  match clean_witness model ~effective ~scratch e x with
                  | Some w -> w :: acc
                  | None -> acc)
              [] (links_of var)
          in
          Chain
            {
              var;
              size = best_size.(e);
              witnesses = Array.of_list (List.rev witnesses);
              quotients = Array.of_list (List.rev quotients.(e));
            })
  in
  {
    entries;
    link_identifiable =
      Array.map
        (function
          | Certified_good -> true
          | Singleton v -> identifiable.(v)
          | Uncovered | Chain _ -> false)
        entries;
  }
