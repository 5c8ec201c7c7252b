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

(* An index keys a registry's variables by (correlation set, mask) in
   {!Signatures}' format, by open addressing over flat arrays: a slot
   holds a variable or [-1], and the key is read back from the
   variable's own entries, so a lookup hashes and compares ints only.
   Over a table where some set is wider than a word it holds nothing. *)
type index = {
  ix_table : Signatures.t;
  ix_reg : registry;
  mutable ix_slots : int array;  (* power-of-two size, at most half full *)
  mutable ix_corr : int array;  (* per variable *)
  mutable ix_mask : int array;  (* per variable *)
  mutable ix_n : int;  (* variables indexed: 0 .. ix_n - 1 *)
}

let slot_of slots c m =
  let h = (m lxor (c * 0x9E3779B97F4A7C1)) * 0xBF58476D1CE4E5B in
  (h lxor (h lsr 29)) land (Array.length slots - 1)

let rec probe ix c m i =
  let v = Array.unsafe_get ix.ix_slots i in
  if v < 0 || (ix.ix_corr.(v) = c && ix.ix_mask.(v) = m) then v
  else probe ix c m ((i + 1) land (Array.length ix.ix_slots - 1))

let find_mask ix ~corr m = probe ix corr m (slot_of ix.ix_slots corr m)

let insert ix v =
  let c = ix.ix_corr.(v) and m = ix.ix_mask.(v) in
  let i = ref (slot_of ix.ix_slots c m) in
  while ix.ix_slots.(!i) >= 0 do
    i := (!i + 1) land (Array.length ix.ix_slots - 1)
  done;
  ix.ix_slots.(!i) <- v

(* Record variable [v]'s key, growing the flat arrays by doubling. *)
let record ix v ~corr m =
  if v <> ix.ix_n then
    invalid_arg "Eqn.add_mask: registry grew outside its index";
  ix.ix_n <- v + 1;
  if v >= Array.length ix.ix_corr then begin
    let grow a = Array.append a (Array.make (max 64 (Array.length a)) 0) in
    ix.ix_corr <- grow ix.ix_corr;
    ix.ix_mask <- grow ix.ix_mask
  end;
  ix.ix_corr.(v) <- corr;
  ix.ix_mask.(v) <- m;
  if 2 * (v + 1) > Array.length ix.ix_slots then begin
    ix.ix_slots <- Array.make (2 * Array.length ix.ix_slots) (-1);
    for u = 0 to v - 1 do
      insert ix u
    done
  end;
  insert ix v

(* Sized for twice the distinct signatures, which is the number of
   single-path variables: most selections never grow it. *)
let index table reg =
  let n = max 64 (2 * Array.length table.Signatures.sigs) in
  let slots = ref 256 in
  while !slots < 2 * n do
    slots := 2 * !slots
  done;
  let ix =
    { ix_table = table; ix_reg = reg; ix_slots = Array.make !slots (-1);
      ix_corr = Array.make n 0; ix_mask = Array.make n 0; ix_n = 0 }
  in
  if table.Signatures.fits then
    for v = 0 to reg.count - 1 do
      let s = Option.get reg.subsets.(v) in
      let m =
        Array.fold_left
          (fun m e -> m lor (1 lsl table.Signatures.link_pos.(e)))
          0 s.Subsets.links
      in
      record ix v ~corr:s.Subsets.corr m
    done;
  ix

let add_mask ix ~corr m =
  match find_mask ix ~corr m with
  | -1 ->
      let v = add ix.ix_reg (Subsets.of_mask ix.ix_table ~corr m) in
      record ix v ~corr m;
      v
  | v -> v

let mask_of_var ix v = ix.ix_mask.(v)

let register_single_path_masks ix =
  let t = ix.ix_table in
  if not t.Signatures.fits then
    invalid_arg "Eqn.register_single_path_masks: a set wider than a word";
  Array.iteri
    (fun k corr -> ignore (add_mask ix ~corr t.Signatures.pair_mask.(k)))
    t.Signatures.pair_set

(* A resolver is a frozen-registry fast path for [row].  [row] pays,
   per candidate path set, a [Bitset] union over all links, a grouping
   hash table, and one {!Subsets.make} validation per induced subset.
   Algorithm 1 materializes thousands of candidate rows per selection
   against a registry that no longer grows, so the resolver reads each
   path's (correlation set, mask) pairs from the signature table, ORs a
   candidate's pairs into per-set masks, and resolves each mask through
   the index.  The produced rows are identical to [row]'s — same
   [Some]/[None] decisions, same sorted [vars] — because both compute
   the same set of induced subsets [Links(P) ∩ C]. *)
type resolver = {
  rz_fallback : (paths:int array -> row option) option;
      (* engaged when some correlation set is wider than a word;
         [row_fast] then just delegates to [build_row] *)
  rz_index : index;
  rz_corr_stamp : int array;  (* per correlation set: generation *)
  rz_corr_mask : int array;  (* accumulated subset mask per set *)
  rz_corr_order : int array;  (* correlation sets in first-seen order *)
  rz_vars : int array array;
      (* per row length: the buffer [row_vars] returns, made on first use *)
  mutable rz_gen : int;
}

let resolver ix =
  let t = ix.ix_table in
  let n_corr = Model.n_corr_sets t.Signatures.model in
  {
    rz_fallback =
      (if t.Signatures.fits then None
       else
         Some
           (row t.Signatures.model ~effective:t.Signatures.effective
              ix.ix_reg));
    rz_index = ix;
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
      let t = rz.rz_index.ix_table in
      let pair_set = t.Signatures.pair_set
      and pair_mask = t.Signatures.pair_mask
      and path_start = t.Signatures.path_start in
      let n_groups = ref 0 in
      for i = 0 to Array.length paths - 1 do
        let p = paths.(i) in
        for k = path_start.(p) to path_start.(p + 1) - 1 do
          let c = Array.unsafe_get pair_set k
          and m = Array.unsafe_get pair_mask k in
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
          (match find_mask rz.rz_index ~corr:c mask.(c) with
          | -1 -> ok := false
          | v -> vars.(!g) <- v);
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
