module Bitset = Tomo_util.Bitset

type t = {
  n_links : int;
  n_paths : int;
  path_links : Bitset.t array;
  link_paths : Bitset.t array;
  corr_sets : int array array;
  corr_of_link : int array;
}

let make ~n_links ~paths ~corr_sets =
  if n_links <= 0 then invalid_arg "Model.make: no links";
  let n_paths = Array.length paths in
  if n_paths = 0 then invalid_arg "Model.make: no paths";
  let path_links =
    Array.map
      (fun links ->
        if Array.length links = 0 then invalid_arg "Model.make: empty path";
        let b = Bitset.create n_links in
        Array.iter
          (fun e ->
            if e < 0 || e >= n_links then
              invalid_arg "Model.make: link out of range";
            if Bitset.get b e then
              invalid_arg "Model.make: path traverses a link twice";
            Bitset.set b e)
          links;
        b)
      paths
  in
  let link_paths = Array.init n_links (fun _ -> Bitset.create n_paths) in
  Array.iteri
    (fun p b -> Bitset.iter (fun e -> Bitset.set link_paths.(e) p) b)
    path_links;
  let corr_of_link = Array.make n_links (-1) in
  Array.iteri
    (fun c links ->
      Array.iter
        (fun e ->
          if e < 0 || e >= n_links then
            invalid_arg "Model.make: correlation set link out of range";
          if corr_of_link.(e) >= 0 then
            invalid_arg "Model.make: link in two correlation sets";
          corr_of_link.(e) <- c)
        links)
    corr_sets;
  if Array.exists (fun c -> c < 0) corr_of_link then
    invalid_arg "Model.make: link missing from correlation sets";
  let corr_sets =
    Array.map
      (fun links ->
        let s = Array.copy links in
        Array.sort compare s;
        s)
      corr_sets
  in
  { n_links; n_paths; path_links; link_paths; corr_sets; corr_of_link }

let paths_of_links t links =
  let acc = Bitset.create t.n_paths in
  Array.iter (fun e -> Bitset.union_into ~into:acc t.link_paths.(e)) links;
  acc

let links_of_paths t paths =
  let acc = Bitset.create t.n_links in
  Array.iter (fun p -> Bitset.union_into ~into:acc t.path_links.(p)) paths;
  acc

let corr_set_links t c = t.corr_sets.(c)
let n_corr_sets t = Array.length t.corr_sets
