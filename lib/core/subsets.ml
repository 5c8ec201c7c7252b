module Bitset = Tomo_util.Bitset
module Combin = Tomo_util.Combin
module Obs = Tomo_obs

(* §4 complexity control observability: how many correlation subsets the
   enumeration produced, how often a correlation set's enumeration was
   truncated (by the per-set find cap or by the visit budget — either
   way Ê lost completeness), and how many combination visits the
   identifiability pruner saved. *)
let c_enumerated = Obs.Metrics.counter "subsets_enumerated"
let c_capped = Obs.Metrics.counter "subsets_enumeration_capped"
let c_pruned = Obs.Metrics.counter "ident_pruned_sets"

(* The identifiability pruner is a pure skip of provably empty work, so
   it is always on; switching it off only serves the parity properties
   that compare it with the exhaustive fan-out. *)
let ident_prune = ref true
let set_ident_prune b = ident_prune := b

type t = { corr : int; links : int array }

let make model ~corr links =
  if Array.length links = 0 then invalid_arg "Subsets.make: empty subset";
  if corr < 0 || corr >= Model.n_corr_sets model then
    invalid_arg "Subsets.make: bad correlation set";
  let sorted = Array.copy links in
  Array.sort compare sorted;
  Array.iteri
    (fun i e ->
      if i > 0 && sorted.(i - 1) = e then
        invalid_arg "Subsets.make: duplicate link";
      if model.Model.corr_of_link.(e) <> corr then
        invalid_arg "Subsets.make: link outside correlation set")
    sorted;
  { corr; links = sorted }

let compare a b =
  match Stdlib.compare a.corr b.corr with
  | 0 -> Stdlib.compare a.links b.links
  | c -> c

let equal a b = compare a b = 0

let key s =
  Printf.sprintf "%d:%s" s.corr
    (String.concat "," (Array.to_list (Array.map string_of_int s.links)))

let pp ppf s =
  Format.fprintf ppf "{C%d:%a}" s.corr
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (Array.to_list s.links)

let effective_links model obs =
  let n_links = model.Model.n_links in
  let eff = Bitset.create n_links in
  (* Start from links that are observed at all. *)
  for e = 0 to n_links - 1 do
    if not (Bitset.is_empty model.Model.link_paths.(e)) then Bitset.set eff e
  done;
  (* Remove links certified good by an always-good path. *)
  for p = 0 to model.Model.n_paths - 1 do
    if Observations.always_good obs ~path:p then
      Bitset.diff_into ~into:eff model.Model.path_links.(p)
  done;
  eff

(* Both filters sit on the enumeration hot path (once per visited
   subset via [candidate_paths]); they fill a counted array directly
   instead of round-tripping through lists. *)
let effective_corr_set model ~effective c =
  let all = Model.corr_set_links model c in
  let n = ref 0 in
  Array.iter (fun e -> if Bitset.get effective e then incr n) all;
  let out = Array.make !n 0 in
  let j = ref 0 in
  Array.iter
    (fun e ->
      if Bitset.get effective e then begin
        out.(!j) <- e;
        incr j
      end)
    all;
  out

let complement model ~effective s =
  (* [s.links] and the correlation set are both sorted ascending, so
     membership is a linear merge. *)
  let all = Model.corr_set_links model s.corr in
  let links = s.links in
  let nl = Array.length links in
  let keep e i = Bitset.get effective e && (!i >= nl || links.(!i) <> e) in
  let n = ref 0 in
  let i = ref 0 in
  Array.iter
    (fun e ->
      while !i < nl && links.(!i) < e do
        incr i
      done;
      if keep e i then incr n)
    all;
  let out = Array.make !n 0 in
  let j = ref 0 in
  i := 0;
  Array.iter
    (fun e ->
      while !i < nl && links.(!i) < e do
        incr i
      done;
      if keep e i then begin
        out.(!j) <- e;
        incr j
      end)
    all;
  out

let candidate_paths model ~effective s =
  let pool = Model.paths_of_links model s.links in
  let comp = complement model ~effective s in
  Bitset.diff_into ~into:pool (Model.paths_of_links model comp);
  pool

let inducible model ~effective s =
  let pool = candidate_paths model ~effective s in
  Array.for_all
    (fun e -> not (Bitset.disjoint pool model.Model.link_paths.(e)))
    s.links

(* Enumeration state machine, per correlation set.  The semantics the
   pruner must preserve exactly: subsets are visited by size then
   lexicographic order; each visit first checks the [limit_per_set * 4]
   visit budget (stop when exhausted), then the [limit_per_set] find cap
   (stop when reached), then runs the inducibility test.  Either early
   stop with unvisited subsets remaining truncates Ê and counts once
   into [subsets_enumeration_capped] (the budget path used to be
   silently uncounted).

   The pruner's [Identifiability.inducible_size_witness] proves some
   sizes contain no inducible subset at all; those sizes are skipped
   without generating their combinations, but their would-be
   visits are still charged against the budget ([Combin.choose]
   arithmetic instead of iteration), so the surviving visit sequence —
   and with it every found subset, counter and truncation decision — is
   bit-identical to the exhaustive fan-out. *)
let enumerate model ~effective ~max_size ~limit_per_set =
  if max_size < 1 then invalid_arg "Subsets.enumerate: max_size < 1";
  if limit_per_set < 1 then invalid_arg "Subsets.enumerate: bad limit";
  let prune = !ident_prune in
  let acc = ref [] in
  for c = 0 to Model.n_corr_sets model - 1 do
    let eff = effective_corr_set model ~effective c in
    let n = Array.length eff in
    if n > 0 then begin
      let witness =
        if prune then
          Some
            (Identifiability.inducible_size_witness model ~effective ~corr:c
               ~max_size)
        else None
      in
      let budget = limit_per_set * 4 in
      let size_cap = min max_size n in
      let visited = ref 0 in
      let found = ref 0 in
      let truncated = ref false in
      let stop = ref false in
      let k = ref 1 in
      while (not !stop) && !k <= size_cap do
        let total = Combin.choose n !k in
        let remaining = budget - !visited in
        if remaining <= 0 || !found >= limit_per_set then begin
          (* The next visit (size [k] is non-empty) would have stopped
             the exhaustive enumeration here. *)
          truncated := true;
          stop := true
        end
        else begin
          let skip =
            match witness with Some w -> not w.(!k - 1) | None -> false
          in
          if skip then begin
            (* Provably nothing inducible in this size: charge the
               budget arithmetically instead of fanning out. *)
            Obs.Metrics.incr ~by:(min total remaining) c_pruned;
            if total >= remaining then begin
              visited := budget;
              if total > remaining then begin
                truncated := true;
                stop := true
              end
            end
            else visited := !visited + total
          end
          else begin
            let visited_k =
              Combin.iter_sized eff ~size:!k ~limit:remaining (fun links ->
                  if !found >= limit_per_set then begin
                    truncated := true;
                    stop := true;
                    `Stop
                  end
                  else begin
                    let s = make model ~corr:c links in
                    if inducible model ~effective s then begin
                      acc := s :: !acc;
                      incr found
                    end;
                    `Continue
                  end)
            in
            visited := !visited + visited_k;
            if (not !stop) && visited_k < total && visited_k >= remaining
            then begin
              truncated := true;
              stop := true
            end
          end
        end;
        incr k
      done;
      if !truncated then Obs.Metrics.incr c_capped;
      Obs.Metrics.incr ~by:!found c_enumerated
    end
  done;
  List.rev !acc
