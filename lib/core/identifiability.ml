module Bitset = Tomo_util.Bitset
module Combin = Tomo_util.Combin
module Obs = Tomo_obs

(* How many effective links the analysis classified as structurally
   ambiguous (cumulative across analyses, like the other pipeline
   counters). *)
let c_ambiguous = Obs.Metrics.counter "ident_ambiguous_links"

type link_class = { representative : int; links : int array }

type corr_stats = {
  corr : int;
  n_effective : int;
  n_ambiguous : int;
  n_signatures : int;
  min_signature : int;
  inducible_by_size : int array option;
  max_identifiable_size : int option;
  pruned_sizes : int;
}

type t = {
  max_size : int;
  n_effective : int;
  classes : link_class array;
  ambiguous : Bitset.t;
  corr : corr_stats array;
}

let default_max_size = 3
let default_budget = 20_000

let covered_links model =
  let eff = Bitset.create model.Model.n_links in
  for e = 0 to model.Model.n_links - 1 do
    if not (Bitset.is_empty model.Model.link_paths.(e)) then Bitset.set eff e
  done;
  eff

(* A stable hashtable key for a bit set: its packed words.  All
   [link_paths] share the capacity [n_paths], so equal keys mean equal
   sets. *)
let bitset_key b =
  let buf = Buffer.create 64 in
  Bitset.iter_words
    (fun _ w ->
      Buffer.add_string buf (string_of_int w);
      Buffer.add_char buf ',')
    b;
  Buffer.contents buf

let ambiguity_classes model ~effective =
  let tbl : (string, int list ref) Hashtbl.t =
    Hashtbl.create model.Model.n_links
  in
  let order = ref [] in
  for e = model.Model.n_links - 1 downto 0 do
    if Bitset.get effective e then begin
      let key = bitset_key model.Model.link_paths.(e) in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := e :: !cell
      | None ->
          let cell = ref [ e ] in
          Hashtbl.add tbl key cell;
          order := (e, cell) :: !order
    end
  done;
  (* [order] holds one entry per distinct path set; downto traversal
     makes both the entry order and each member list ascending. *)
  let classes =
    List.filter_map
      (fun (_, cell) ->
        match !cell with
        | _ :: _ :: _ as members ->
            let links = Array.of_list members in
            Some { representative = links.(0); links }
        | _ -> None)
      (List.sort (fun (a, _) (b, _) -> compare b a) !order)
  in
  let classes = Array.of_list (List.rev classes) in
  let n_ambiguous =
    Array.fold_left (fun a c -> a + Array.length c.links) 0 classes
  in
  Obs.Metrics.incr ~by:n_ambiguous c_ambiguous;
  classes

let ambiguous_of_classes model classes =
  let b = Bitset.create model.Model.n_links in
  Array.iter
    (fun c -> Array.iter (fun e -> Bitset.set b e) c.links)
    classes;
  b

let ambiguous_links model ~effective =
  ambiguous_of_classes model (ambiguity_classes model ~effective)

(* Per-correlation-set signature closure.

   For a subset [E] of the effective links of one correlation set, the
   candidate path pool is [Paths(E) \ Paths(Ē)] — the paths whose trace
   on the set (their "signature") is contained in [E].  [E] can appear
   in an equation iff every link of [E] is covered by such a path, i.e.
   iff [E] is a union of path signatures.  So the inducible subsets of
   size ≤ [max_size] are exactly the union-closure of the distinct
   signatures of size ≤ [max_size] — computable without ever fanning
   out the [C(n,k)] combinations.  The closure's nodes are masks in the
   table's format, registered in [reg]: a node is new iff its (set,
   mask) is, and the variables a set's closure registers, in order, are
   its breadth-first queue. *)
type closure = {
  cl_eff : int array;
  cl_n_sigs : int;
  cl_min_sig : int;  (** 0 when the set has no signatures at all *)
  cl_witness : bool array;
      (** per size 1..max_size: true unless provably no inducible subset
          of that size exists *)
  cl_nodes : int array list option;
      (** every inducible subset's mask; [None] when the node budget
          was hit *)
}

let close (table : Signatures.t) reg ~corr ~max_size ~budget =
  let w = table.Signatures.words and sigs = table.Signatures.sigs in
  let eff = Signatures.effective_links table corr in
  let witness = Array.make (max 1 max_size) false in
  (* The set's distinct signatures, ascending, from the table. *)
  let lo = table.Signatures.sig_start.(corr)
  and hi = table.Signatures.sig_start.(corr + 1) in
  let min_sig = ref 0 in
  let small_sigs = ref [] in
  for k = hi - 1 downto lo do
    let s = Signatures.popcount sigs (k * w) w in
    if !min_sig = 0 || s < !min_sig then min_sig := s;
    if s <= max_size then small_sigs := k * w :: !small_sigs
  done;
  let small_sigs = !small_sigs in
  let first = Eqn.n_vars reg in
  let capped = ref false in
  let visit m i =
    if Eqn.find_mask reg ~corr m i < 0 then
      if Eqn.n_vars reg - first >= budget then capped := true
      else begin
        ignore (Eqn.add_mask reg ~corr m i);
        witness.(Signatures.popcount m i w - 1) <- true
      end
  in
  List.iter (visit sigs) small_sigs;
  let q = ref first and v = Array.make w 0 in
  while !q < Eqn.n_vars reg && not !capped do
    let u = Eqn.mask_of_var reg !q in
    incr q;
    List.iter
      (fun s ->
        for j = 0 to w - 1 do
          v.(j) <- u.(j) lor sigs.(s + j)
        done;
        if
          (not (Signatures.equal v 0 u 0 w))
          && Signatures.popcount v 0 w <= max_size
        then visit v 0)
      small_sigs
  done;
  if !capped then
    (* Unknown territory: anything not yet proven inducible may still
       be — never claim emptiness off a truncated closure. *)
    for k = 1 to min max_size (Array.length eff) do
      witness.(k - 1) <- true
    done;
  let nodes =
    if !capped then None
    else Some (List.init (Eqn.n_vars reg - first) (fun i ->
        Eqn.mask_of_var reg (first + i)))
  in
  { cl_eff = eff; cl_n_sigs = hi - lo; cl_min_sig = !min_sig;
    cl_witness = witness; cl_nodes = nodes }

let coverage_key model cl_eff mask =
  let cov = Bitset.create model.Model.n_paths in
  Array.iteri
    (fun j word ->
      let m = ref word in
      while !m <> 0 do
        let low = !m land - !m in
        let i = (j * Sys.int_size) + Bitset.popcount (low - 1) in
        Bitset.union_into ~into:cov model.Model.link_paths.(cl_eff.(i));
        m := !m lxor low
      done)
    mask;
  bitset_key cov

let corr_stats_of model table reg ~ambiguous ~max_size ~budget c =
  let cl = close table reg ~corr:c ~max_size ~budget in
  let n = Array.length cl.cl_eff in
  let n_amb =
    Array.fold_left
      (fun a e -> if Bitset.get ambiguous e then a + 1 else a)
      0 cl.cl_eff
  in
  let size_cap = min max_size n in
  let pruned_sizes = ref 0 in
  for k = 1 to size_cap do
    if not cl.cl_witness.(k - 1) then incr pruned_sizes
  done;
  let inducible_by_size, max_ident =
    match cl.cl_nodes with
    | None -> (None, None)
    | Some nodes ->
        let size m = Signatures.popcount m 0 (Array.length m) in
        let counts = Array.make (max 1 max_size) 0 in
        List.iter (fun m -> counts.(size m - 1) <- counts.(size m - 1) + 1) nodes;
        (* Distinguishability of the candidate subsets: two subsets with
           the same path coverage produce the same observable footprint.
           Scanning in increasing size, the first coverage collision
           bounds the maximal identifiable size from above. *)
        let sorted =
          List.sort (fun a b -> compare (size a) (size b)) nodes
        in
        let cov_tbl = Hashtbl.create 256 in
        let collision = ref None in
        List.iter
          (fun m ->
            if !collision = None then begin
              let key = coverage_key model cl.cl_eff m in
              if Hashtbl.mem cov_tbl key then collision := Some (size m)
              else Hashtbl.add cov_tbl key m
            end)
          sorted;
        let k_max =
          match !collision with Some s -> s - 1 | None -> size_cap
        in
        (Some counts, Some k_max)
  in
  {
    corr = c;
    n_effective = n;
    n_ambiguous = n_amb;
    n_signatures = cl.cl_n_sigs;
    min_signature = cl.cl_min_sig;
    inducible_by_size;
    max_identifiable_size = max_ident;
    pruned_sizes = !pruned_sizes;
  }

let analyze ?(max_size = default_max_size) ?(budget = default_budget) model
    ~effective =
  if max_size < 1 then invalid_arg "Identifiability.analyze: max_size < 1";
  let classes = ambiguity_classes model ~effective in
  let ambiguous = ambiguous_of_classes model classes in
  let table = Signatures.build model ~effective in
  let reg = Eqn.registry table in
  let corr =
    Array.init (Model.n_corr_sets model) (fun c ->
        corr_stats_of model table reg ~ambiguous ~max_size ~budget c)
  in
  let n_effective = Bitset.count effective in
  { max_size; n_effective; classes; ambiguous; corr }

let link_ambiguous t e = Bitset.get t.ambiguous e

let pp ppf t =
  let n_ambiguous = Bitset.count t.ambiguous in
  Format.fprintf ppf "ambiguous links: %d of %d effective (%d classes)@."
    n_ambiguous t.n_effective (Array.length t.classes);
  if Array.length t.classes = 0 then
    Format.fprintf ppf "condition 1 (distinct path sets): SATISFIED@."
  else begin
    Format.fprintf ppf "condition 1 (distinct path sets): VIOLATED@.";
    Array.iteri
      (fun i c ->
        if i < 8 then
          Format.fprintf ppf "  class %d: links {%s} share one path set@." i
            (String.concat ","
               (Array.to_list (Array.map string_of_int c.links))))
      t.classes;
    if Array.length t.classes > 8 then
      Format.fprintf ppf "  ... and %d more classes@."
        (Array.length t.classes - 8)
  end;
  let n_sets = Array.length t.corr in
  let active =
    Array.fold_left
      (fun a (s : corr_stats) -> if s.n_effective > 0 then a + 1 else a)
      0 t.corr
  in
  let exact =
    Array.fold_left
      (fun a (s : corr_stats) -> if s.inducible_by_size <> None then a + 1 else a)
      0 t.corr
  in
  Format.fprintf ppf
    "correlation sets: %d (%d with effective links, %d exact closures)@."
    n_sets active exact;
  let total_slots = ref 0 and pruned_slots = ref 0 in
  Array.iter
    (fun (s : corr_stats) ->
      if s.n_effective > 0 then begin
        total_slots := !total_slots + min t.max_size s.n_effective;
        pruned_slots := !pruned_slots + s.pruned_sizes
      end)
    t.corr;
  Format.fprintf ppf "prunable size slots: %d of %d@." !pruned_slots
    !total_slots;
  for k = 1 to t.max_size do
    let inducible = ref 0 and enumerable = ref 0 in
    Array.iter
      (fun (s : corr_stats) ->
        match s.inducible_by_size with
        | Some counts when s.n_effective >= k ->
            inducible := !inducible + counts.(k - 1);
            let c = Combin.choose s.n_effective k in
            if c < max_int - !enumerable then enumerable := !enumerable + c
        | _ -> ())
      t.corr;
    Format.fprintf ppf "  size %d: %d inducible of %d enumerable subsets@." k
      !inducible !enumerable
  done;
  let hist = Array.make (t.max_size + 1) 0 in
  let unknown = ref 0 in
  Array.iter
    (fun (s : corr_stats) ->
      if s.n_effective > 0 then
        match s.max_identifiable_size with
        | Some k -> hist.(min k t.max_size) <- hist.(min k t.max_size) + 1
        | None -> incr unknown)
    t.corr;
  Format.fprintf ppf "max identifiable size (per set with effective links):";
  Array.iteri (fun k c -> Format.fprintf ppf " %d:%d" k c) hist;
  if !unknown > 0 then Format.fprintf ppf " unknown:%d" !unknown;
  Format.fprintf ppf "@."
