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

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

(* Per-correlation-set signature closure.

   For a subset [E] of the effective links of one correlation set, the
   candidate path pool is [Paths(E) \ Paths(Ē)] — the paths whose trace
   on the set (their "signature") is contained in [E].  [E] can appear
   in an equation iff every link of [E] is covered by such a path, i.e.
   iff [E] is a union of path signatures.  So the inducible subsets of
   size ≤ [max_size] are exactly the union-closure of the distinct
   signatures of size ≤ [max_size] — computable without ever fanning
   out the [C(n,k)] combinations. *)
type closure = {
  cl_eff : int array;
  cl_n_sigs : int;
  cl_min_sig : int;  (** 0 when the set has no signatures at all *)
  cl_witness : bool array;
      (** per size 1..max_size: true unless provably no inducible subset
          of that size exists *)
  cl_nodes : int list option;
      (** every inducible subset as a link-position mask; [None] when the
          node budget was hit or the set is too wide to mask *)
}

let close (table : Signatures.t) ~corr ~max_size ~budget =
  let model = table.Signatures.model in
  let eff = Signatures.effective_links table corr in
  let n = Array.length eff in
  let witness = Array.make (max 1 max_size) false in
  if n = 0 then
    { cl_eff = eff; cl_n_sigs = 0; cl_min_sig = 0; cl_witness = witness;
      cl_nodes = Some [] }
  else if not (Signatures.set_fits table corr) then begin
    (* Too wide for an int mask: fall back to the minimum-signature
       bound, which is still sound where it reports emptiness (no
       subset smaller than every signature can be a union of
       signatures). *)
    let min_sig = ref max_int and any = ref false in
    let count_on_set p =
      let c = ref 0 in
      Array.iter
        (fun e -> if Bitset.get model.Model.link_paths.(e) p then incr c)
        eff;
      !c
    in
    let seen_sizes = Hashtbl.create 8 in
    Bitset.iter
      (fun p ->
        let s = count_on_set p in
        if s > 0 then begin
          any := true;
          if s < !min_sig then min_sig := s;
          Hashtbl.replace seen_sizes s ()
        end)
      (Model.paths_of_links model eff);
    let min_sig = if !any then !min_sig else 0 in
    for k = 1 to min max_size n do
      witness.(k - 1) <- min_sig > 0 && k >= min_sig
    done;
    { cl_eff = eff; cl_n_sigs = Hashtbl.length seen_sizes;
      cl_min_sig = min_sig; cl_witness = witness; cl_nodes = None }
  end
  else begin
    (* The set's distinct path signatures, ascending, from the table. *)
    let lo = table.Signatures.sig_start.(corr)
    and hi = table.Signatures.sig_start.(corr + 1) in
    let n_sigs = hi - lo in
    let min_sig = ref 0 in
    let small_sigs = ref [] in
    for i = hi - 1 downto lo do
      let m = table.Signatures.sigs.(i) in
      let s = popcount m in
      if !min_sig = 0 || s < !min_sig then min_sig := s;
      if s <= max_size then small_sigs := m :: !small_sigs
    done;
    let small_sigs = !small_sigs in
    let size_cap = min max_size n in
    let seen = Hashtbl.create 256 in
    let q = Queue.create () in
    let capped = ref false in
    let visit m =
      if not (Hashtbl.mem seen m) then
        if Hashtbl.length seen >= budget then capped := true
        else begin
          Hashtbl.add seen m ();
          witness.(popcount m - 1) <- true;
          Queue.add m q
        end
    in
    List.iter visit small_sigs;
    while (not (Queue.is_empty q)) && not !capped do
      let u = Queue.pop q in
      List.iter
        (fun s ->
          let v = u lor s in
          if v <> u && popcount v <= max_size then visit v)
        small_sigs
    done;
    if !capped then
      (* Unknown territory: anything not yet proven inducible may still
         be — never claim emptiness off a truncated closure. *)
      for k = 1 to size_cap do
        witness.(k - 1) <- true
      done;
    let nodes =
      if !capped then None
      else Some (Hashtbl.fold (fun m () acc -> m :: acc) seen [])
    in
    { cl_eff = eff; cl_n_sigs = n_sigs; cl_min_sig = !min_sig;
      cl_witness = witness; cl_nodes = nodes }
  end

let coverage_key model cl_eff mask =
  let cov = Bitset.create model.Model.n_paths in
  let m = ref mask in
  while !m <> 0 do
    let low = !m land - !m in
    let i = popcount (low - 1) in
    Bitset.union_into ~into:cov model.Model.link_paths.(cl_eff.(i));
    m := !m land (!m - 1)
  done;
  bitset_key cov

let corr_stats_of model table ~ambiguous ~max_size ~budget c =
  let cl = close table ~corr:c ~max_size ~budget in
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
        let counts = Array.make (max 1 max_size) 0 in
        List.iter (fun m -> counts.(popcount m - 1) <- counts.(popcount m - 1) + 1) nodes;
        (* Distinguishability of the candidate subsets: two subsets with
           the same path coverage produce the same observable footprint.
           Scanning in increasing size, the first coverage collision
           bounds the maximal identifiable size from above. *)
        let sorted =
          List.sort
            (fun a b -> compare (popcount a) (popcount b))
            nodes
        in
        let cov_tbl = Hashtbl.create 256 in
        let collision = ref None in
        List.iter
          (fun m ->
            if !collision = None then begin
              let key = coverage_key model cl.cl_eff m in
              if Hashtbl.mem cov_tbl key then collision := Some (popcount m)
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
  let corr =
    Array.init (Model.n_corr_sets model) (fun c ->
        corr_stats_of model table ~ambiguous ~max_size ~budget c)
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
