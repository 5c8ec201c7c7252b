type kind = Inter | Intra

type link = {
  id : int;
  owner_as : int;
  kind : kind;
  factors : int array;
}

type path = { id : int; links : int array }

type t = {
  n_ases : int;
  source_as : int;
  links : link array;
  paths : path array;
  n_factors : int;
  factor_owner : int array;
}

let n_links t = Array.length t.links
let n_paths t = Array.length t.paths

let correlation_sets t =
  let by_as = Hashtbl.create 64 in
  Array.iter
    (fun l ->
      let prev = try Hashtbl.find by_as l.owner_as with Not_found -> [] in
      Hashtbl.replace by_as l.owner_as (l.id :: prev))
    t.links;
  Hashtbl.fold (fun as_id ids acc -> (as_id, ids) :: acc) by_as []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, ids) -> Array.of_list (List.rev ids))
  |> Array.of_list

let links_sharing_factor t =
  let buckets = Array.make t.n_factors [] in
  Array.iter
    (fun (l : link) ->
      Array.iter (fun f -> buckets.(f) <- l.id :: buckets.(f)) l.factors)
    t.links;
  Array.map (fun ids -> Array.of_list (List.rev ids)) buckets

let validate t =
  let fail fmt = Format.kasprintf failwith fmt in
  Array.iteri
    (fun i (l : link) ->
      if l.id <> i then fail "link %d has id %d" i l.id;
      if l.owner_as < 0 || l.owner_as >= t.n_ases then
        fail "link %d owned by unknown AS %d" i l.owner_as;
      if Array.length l.factors = 0 then fail "link %d has no factors" i;
      Array.iter
        (fun f ->
          if f < 0 || f >= t.n_factors then
            fail "link %d references unknown factor %d" i f;
          if t.factor_owner.(f) <> l.owner_as then
            fail "link %d (AS %d) uses factor %d of AS %d" i l.owner_as f
              t.factor_owner.(f))
        l.factors)
    t.links;
  Array.iteri
    (fun i p ->
      if p.id <> i then fail "path %d has id %d" i p.id;
      if Array.length p.links = 0 then fail "path %d is empty" i;
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun l ->
          if l < 0 || l >= n_links t then
            fail "path %d uses unknown link %d" i l;
          if Hashtbl.mem seen l then
            fail "path %d traverses link %d twice (loop)" i l;
          Hashtbl.add seen l ())
        p.links)
    t.paths

let pp_summary ppf t =
  let used = Array.make (n_links t) 0 in
  Array.iter
    (fun (p : path) -> Array.iter (fun l -> used.(l) <- used.(l) + 1) p.links)
    t.paths;
  let single = Array.fold_left (fun a c -> if c = 1 then a + 1 else a) 0 used
  and total_hops =
    Array.fold_left (fun a (p : path) -> a + Array.length p.links) 0 t.paths
  in
  Format.fprintf ppf
    "@[<v>ASes: %d@,links: %d (%d traversed by a single path)@,paths: %d \
     (mean length %.1f links)@,factors: %d@]"
    t.n_ases (n_links t) single (n_paths t)
    (float_of_int total_hops /. float_of_int (max 1 (n_paths t)))
    t.n_factors

module Builder = struct
  type overlay = t

  type proto_link = {
    p_owner : int;
    p_kind : kind;
    p_factors : int array;
  }

  type b = {
    b_n_ases : int;
    b_source_as : int;
    factor_ids : (int * string, int) Hashtbl.t;
    mutable factor_owners : int array;  (* the first [b_n_factors] used *)
    mutable b_n_factors : int;
    link_ids : (int * string, int) Hashtbl.t;
    mutable proto_links : proto_link list;  (* reversed *)
    mutable b_n_links : int;
    path_sigs : (int array, unit) Hashtbl.t;
    mutable b_paths : int array list;  (* reversed *)
    mutable b_n_paths : int;
  }

  let create ~n_ases ~source_as =
    if n_ases <= 0 then invalid_arg "Builder.create: no ASes";
    if source_as < 0 || source_as >= n_ases then
      invalid_arg "Builder.create: source AS out of range";
    {
      b_n_ases = n_ases;
      b_source_as = source_as;
      factor_ids = Hashtbl.create 1024;
      factor_owners = [||];
      b_n_factors = 0;
      link_ids = Hashtbl.create 1024;
      proto_links = [];
      b_n_links = 0;
      path_sigs = Hashtbl.create 1024;
      b_paths = [];
      b_n_paths = 0;
    }

  let factor b ~owner ~key =
    match Hashtbl.find_opt b.factor_ids (owner, key) with
    | Some id -> id
    | None ->
        let id = b.b_n_factors in
        Hashtbl.add b.factor_ids (owner, key) id;
        if id = Array.length b.factor_owners then begin
          let a = Array.make (max 64 (2 * id)) 0 in
          Array.blit b.factor_owners 0 a 0 id;
          b.factor_owners <- a
        end;
        b.factor_owners.(id) <- owner;
        b.b_n_factors <- id + 1;
        id

  let link b ~owner ~key ~kind ~factors =
    match Hashtbl.find_opt b.link_ids (owner, key) with
    | Some id -> id
    | None ->
        let fs = factors () in
        if Array.length fs = 0 then
          invalid_arg "Builder.link: link needs at least one factor";
        Array.iter
          (fun f ->
            if f < 0 || f >= b.b_n_factors then
              invalid_arg "Builder.link: unknown factor";
            if b.factor_owners.(f) <> owner then
              invalid_arg "Builder.link: factor owned by a different AS")
          fs;
        let id = b.b_n_links in
        Hashtbl.add b.link_ids (owner, key) id;
        b.proto_links <-
          { p_owner = owner; p_kind = kind; p_factors = fs }
          :: b.proto_links;
        b.b_n_links <- id + 1;
        id

  let add_path b links =
    if Array.length links = 0 then invalid_arg "Builder.add_path: empty";
    if Hashtbl.mem b.path_sigs links then None
    else begin
      Hashtbl.add b.path_sigs links ();
      let id = b.b_n_paths in
      b.b_paths <- links :: b.b_paths;
      b.b_n_paths <- id + 1;
      Some id
    end

  let finalize b =
    let proto = Array.of_list (List.rev b.proto_links) in
    let paths = Array.of_list (List.rev b.b_paths) in
    (* Keep only links traversed by at least one path: the observable
       topology is the union of the measured paths. *)
    let used = Array.make (Array.length proto) false in
    Array.iter (Array.iter (fun l -> used.(l) <- true)) paths;
    let new_link_id = Array.make (Array.length proto) (-1) in
    let kept = ref [] and n_kept = ref 0 in
    Array.iteri
      (fun i p ->
        if used.(i) then begin
          new_link_id.(i) <- !n_kept;
          kept := p :: !kept;
          incr n_kept
        end)
      proto;
    let kept = Array.of_list (List.rev !kept) in
    (* Compact factors of surviving links. *)
    let new_factor_id = Array.make b.b_n_factors (-1) in
    let factor_owner_rev = ref [] and n_factors = ref 0 in
    let remap_factor f =
      if new_factor_id.(f) < 0 then begin
        new_factor_id.(f) <- !n_factors;
        factor_owner_rev := b.factor_owners.(f) :: !factor_owner_rev;
        incr n_factors
      end;
      new_factor_id.(f)
    in
    let links =
      Array.mapi
        (fun i p ->
          {
            id = i;
            owner_as = p.p_owner;
            kind = p.p_kind;
            factors = Array.map remap_factor p.p_factors;
          })
        kept
    in
    let paths =
      Array.mapi
        (fun i ls -> { id = i; links = Array.map (fun l -> new_link_id.(l)) ls })
        paths
    in
    {
      n_ases = b.b_n_ases;
      source_as = b.b_source_as;
      links;
      paths;
      n_factors = !n_factors;
      factor_owner = Array.of_list (List.rev !factor_owner_rev);
    }
end
