module Bitset = Tomo_util.Bitset
module Combin = Tomo_util.Combin
module Obs = Tomo_obs

(* §4 complexity control observability: how many correlation subsets the
   enumeration produced, and how often a correlation set's enumeration
   was truncated (by the per-set find cap or by the visit budget —
   either way Ê lost completeness). *)
let c_enumerated = Obs.Metrics.counter "subsets_enumerated"
let c_capped = Obs.Metrics.counter "subsets_enumeration_capped"

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

let equal a b =
  a.corr = b.corr
  && Array.length a.links = Array.length b.links
  &&
  let same = ref true in
  for i = 0 to Array.length a.links - 1 do
    if Array.unsafe_get a.links i <> Array.unsafe_get b.links i then
      same := false
  done;
  !same

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

let of_mask (table : Signatures.t) ~corr mask i =
  let first = table.Signatures.eff_start.(corr) in
  let w = table.Signatures.words in
  let links = Array.make (Signatures.popcount mask i w) 0 and n = ref 0 in
  for j = 0 to w - 1 do
    let m = ref mask.(i + j) in
    while !m <> 0 do
      let low = !m land - !m in
      links.(!n) <-
        table.Signatures.eff_links.(first + (j * Sys.int_size)
                                    + Bitset.popcount (low - 1));
      incr n;
      m := !m lxor low
    done
  done;
  { corr; links }

(* Enumeration state machine, per correlation set: subsets are visited
   by size then lexicographic order; each visit first checks the
   [limit_per_set * 4] visit budget (stop when exhausted), then the
   [limit_per_set] find cap (stop when reached), then ORs the positions
   into [mask] through the table's word and bit of each position, and
   tests it against the set's signatures.  Either early stop with
   unvisited subsets remaining truncates Ê and counts once into
   [subsets_enumeration_capped]. *)
let enumerate (table : Signatures.t) ~max_size ~limit_per_set f =
  if max_size < 1 then invalid_arg "Subsets.enumerate: max_size < 1";
  if limit_per_set < 1 then invalid_arg "Subsets.enumerate: bad limit";
  let w = table.Signatures.words in
  let pos_word = table.Signatures.pos_word
  and pos_bit = table.Signatures.pos_bit in
  let mask = Array.make w 0 in
  for c = 0 to Model.n_corr_sets table.Signatures.model - 1 do
    let n = Signatures.n_effective table c in
    if n > 0 then begin
      let budget = limit_per_set * 4 in
      let size_cap = min max_size n in
      let visited = ref 0 in
      let n_found = ref 0 in
      let truncated = ref false in
      let stop = ref false in
      let visit idx =
        if !n_found >= limit_per_set then begin
          truncated := true;
          stop := true;
          `Stop
        end
        else begin
          for j = 0 to w - 1 do
            Array.unsafe_set mask j 0
          done;
          for k = 0 to Array.length idx - 1 do
            let i = Array.unsafe_get idx k in
            let j = Array.unsafe_get pos_word i in
            Array.unsafe_set mask j
              (Array.unsafe_get mask j lor Array.unsafe_get pos_bit i)
          done;
          if Signatures.inducible table ~corr:c mask 0 then begin
            incr n_found;
            f c mask
          end;
          `Continue
        end
      in
      let k = ref 1 in
      while (not !stop) && !k <= size_cap do
        let total = Combin.choose n !k in
        let remaining = budget - !visited in
        if remaining <= 0 || !n_found >= limit_per_set then begin
          (* The next visit (size [k] is non-empty) stops the
             enumeration here. *)
          truncated := true;
          stop := true
        end
        else begin
          let visited_k =
            Combin.iter_sized_indices ~n ~size:!k ~limit:remaining visit
          in
          visited := !visited + visited_k;
          if (not !stop) && visited_k < total && visited_k >= remaining
          then begin
            truncated := true;
            stop := true
          end
        end;
        incr k
      done;
      if !truncated then Obs.Metrics.incr c_capped;
      Obs.Metrics.incr ~by:!n_found c_enumerated
    end
  done
