module Bitset = Tomo_util.Bitset

(* Subsets are canonical (sorted links), so the table keys on the subset
   itself. *)
module Tbl = Hashtbl.Make (Subsets)

type registry = {
  by_subset : int Tbl.t;
  mutable subsets : Subsets.t option array;  (* dynamic array *)
  mutable count : int;
}

let registry () =
  { by_subset = Tbl.create 256; subsets = Array.make 64 None; count = 0 }

let n_vars reg = reg.count
let find reg s = Tbl.find_opt reg.by_subset s

let add reg s =
  match Tbl.find_opt reg.by_subset s with
  | Some v -> v
  | None ->
      let v = reg.count in
      Tbl.add reg.by_subset s v;
      if v >= Array.length reg.subsets then begin
        let grown = Array.make (2 * Array.length reg.subsets) None in
        Array.blit reg.subsets 0 grown 0 (Array.length reg.subsets);
        reg.subsets <- grown
      end;
      reg.subsets.(v) <- Some s;
      reg.count <- v + 1;
      v

let subset_of_var reg v =
  if v < 0 || v >= reg.count then
    invalid_arg "Eqn.subset_of_var: unknown variable";
  Option.get reg.subsets.(v)

type row = { paths : int array; vars : int array }

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
      let es = Array.of_list (List.rev (Hashtbl.find by_corr c)) in
      Subsets.make model ~corr:c es)
    !order

let build_row model ~effective reg ~paths ~lookup =
  let links = Model.links_of_paths model paths in
  let subsets = induced_subsets model ~effective ~links in
  if subsets = [] then None
  else begin
    let rec resolve acc = function
      | [] -> Some (List.rev acc)
      | s :: rest -> (
          match lookup reg s with
          | Some v -> resolve (v :: acc) rest
          | None -> None)
    in
    match resolve [] subsets with
    | None -> None
    | Some vars ->
        let vars = Array.of_list vars in
        Array.sort compare vars;
        Some { paths; vars }
  end

let row model ~effective reg ~paths =
  build_row model ~effective reg ~paths ~lookup:find

(* A resolver is a frozen-registry fast path for [row].  [row] pays,
   per candidate path set, a [Bitset] union over all links, a grouping
   hash table, and one {!Subsets.make} validation per induced subset.
   Algorithm 1 materializes tens of thousands of candidate rows per
   selection against a registry that no longer grows, so the resolver
   hoists that work: each path's effective links are folded once into
   (correlation set, link mask) pairs, a candidate ORs its paths' pairs
   into per-set masks, and each mask resolves through a per-set hash
   table of registered subsets.  The produced rows are identical to
   [row]'s — same [Some]/[None] decisions, same sorted [vars] — because
   both compute the same set of induced subsets [Links(P) ∩ C]. *)
type resolver = {
  rz_fallback : (paths:int array -> row option) option;
      (* engaged when some correlation set is too large for the mask
         encoding; [row_fast] then just delegates to [build_row] *)
  rz_by_mask : (int, int) Hashtbl.t array;
      (* per correlation set: within-set link mask -> variable *)
  rz_path_groups : int array array;
      (* per path: its (correlation set, link mask) pairs, flattened,
         sets in the order of their first effective link *)
  rz_corr_stamp : int array;  (* per correlation set: generation *)
  rz_corr_mask : int array;  (* accumulated subset mask per set *)
  rz_corr_order : int array;  (* correlation sets in first-seen order *)
  rz_vars : int array array;
      (* per row length: the buffer [row_vars] returns, made on first use *)
  mutable rz_gen : int;
}

let resolver model ~effective reg =
  let n_links = model.Model.n_links in
  let n_corr = Model.n_corr_sets model in
  (* A subset within correlation set [c] is keyed by the bitmask of its
     links' positions in [corr_sets.(c)] — order-independent, so a
     candidate's subsets are ORed together from its paths' masks with
     no sorting or per-group allocation.  Needs every correlation set
     to fit one word. *)
  let too_wide = ref false in
  let pos_of_link = Array.make n_links 0 in
  for c = 0 to n_corr - 1 do
    let links = Model.corr_set_links model c in
    if Array.length links > Sys.int_size - 2 then too_wide := true
    else Array.iteri (fun i e -> pos_of_link.(e) <- i) links
  done;
  let fallback = if !too_wide then Some (row model ~effective reg) else None in
  let by_mask = Array.init n_corr (fun _ -> Hashtbl.create 16) in
  if not !too_wide then
    for v = 0 to reg.count - 1 do
      match reg.subsets.(v) with
      | Some s ->
          let mask =
            Array.fold_left
              (fun m e -> m lor (1 lsl pos_of_link.(e)))
              0 s.Subsets.links
          in
          Hashtbl.replace by_mask.(s.Subsets.corr) mask v
      | None -> ()
    done;
  let corr_of = model.Model.corr_of_link in
  let path_groups =
    if !too_wide then [||]
    else begin
      let slot = Array.make n_corr (-1) in
      let groups = Array.make (2 * n_corr) 0 in
      Array.map
        (fun row ->
          let n = ref 0 in
          Bitset.iter
            (fun e ->
              if Bitset.unsafe_get effective e then begin
                let c = corr_of.(e) in
                if slot.(c) < 0 then begin
                  slot.(c) <- !n;
                  groups.(!n) <- c;
                  groups.(!n + 1) <- 0;
                  n := !n + 2
                end;
                let k = slot.(c) + 1 in
                groups.(k) <- groups.(k) lor (1 lsl pos_of_link.(e))
              end)
            row;
          let g = Array.sub groups 0 !n in
          for k = 0 to (!n / 2) - 1 do
            slot.(g.(2 * k)) <- -1
          done;
          g)
        model.Model.path_links
    end
  in
  {
    rz_fallback = fallback;
    rz_by_mask = by_mask;
    rz_path_groups = path_groups;
    rz_corr_stamp = Array.make n_corr 0;
    rz_corr_mask = Array.make n_corr 0;
    rz_corr_order = Array.make n_corr 0;
    rz_vars = Array.make (n_corr + 1) [||];
    rz_gen = 0;
  }

let row_vars rz ~paths =
  match rz.rz_fallback with
  | Some f -> ( match f ~paths with Some r -> r.vars | None -> [||])
  | None ->
      let gen = rz.rz_gen + 1 in
      rz.rz_gen <- gen;
      (* OR each path's per-set masks into the candidate's, in
         first-seen order of the sets. *)
      let stamp = rz.rz_corr_stamp and mask = rz.rz_corr_mask in
      let n_groups = ref 0 in
      for i = 0 to Array.length paths - 1 do
        let g = rz.rz_path_groups.(paths.(i)) in
        for k = 0 to (Array.length g / 2) - 1 do
          let c = Array.unsafe_get g (2 * k)
          and m = Array.unsafe_get g ((2 * k) + 1) in
          if Array.unsafe_get stamp c <> gen then begin
            Array.unsafe_set stamp c gen;
            Array.unsafe_set mask c m;
            rz.rz_corr_order.(!n_groups) <- c;
            incr n_groups
          end
          else Array.unsafe_set mask c (Array.unsafe_get mask c lor m)
        done
      done;
      let n_groups = !n_groups in
      if n_groups = 0 then [||]
      else begin
        let vars =
          match rz.rz_vars.(n_groups) with
          | [||] ->
              let b = Array.make n_groups 0 in
              rz.rz_vars.(n_groups) <- b;
              b
          | b -> b
        in
        let ok = ref true in
        let g = ref 0 in
        while !ok && !g < n_groups do
          let c = rz.rz_corr_order.(!g) in
          (match Hashtbl.find_opt rz.rz_by_mask.(c) mask.(c) with
          | Some v -> vars.(!g) <- v
          | None -> ok := false);
          incr g
        done;
        if not !ok then [||]
        else begin
          (* Insertion sort: a row touches a handful of subsets. *)
          for i = 1 to n_groups - 1 do
            let x = vars.(i) in
            let j = ref (i - 1) in
            while !j >= 0 && vars.(!j) > x do
              vars.(!j + 1) <- vars.(!j);
              decr j
            done;
            vars.(!j + 1) <- x
          done;
          vars
        end
      end

let row_fast rz ~paths =
  match row_vars rz ~paths with
  | [||] -> None
  | vars -> Some { paths; vars = Array.copy vars }

let row_grow model ~effective reg ~paths =
  build_row model ~effective reg ~paths ~lookup:(fun reg s ->
      Some (add reg s))

let register_single_path_vars model ~effective reg =
  let before = n_vars reg in
  for p = 0 to model.Model.n_paths - 1 do
    let links = model.Model.path_links.(p) in
    List.iter
      (fun s -> ignore (add reg s))
      (induced_subsets model ~effective ~links)
  done;
  n_vars reg - before
