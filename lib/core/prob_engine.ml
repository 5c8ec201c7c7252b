module Bitset = Tomo_util.Bitset
module Cgls = Tomo_linalg.Cgls
module Sparse_chol = Tomo_linalg.Sparse_chol
module Obs = Tomo_obs

let c_solves = Obs.Metrics.counter "prob_engine_solves"

type t = {
  selection : Algorithm1.selection;
  values : float array;
  obs : Observations.t;
}

let identifiable t v = t.selection.Algorithm1.identifiable.(v)

let solve_b (selection : Algorithm1.selection) obs b =
  Obs.Trace.with_span "prob_engine.solve" @@ fun () ->
  Obs.Metrics.incr c_solves;
  let values =
    match selection.Algorithm1.factor with
    | Some f -> Sparse_chol.solve f b
    | None ->
        (* A redundant, possibly inconsistent pool has no factor: its
           minimum-norm least-squares solution comes from CGLS. *)
        Cgls.solve
          ~cols:(Eqn.n_vars selection.Algorithm1.registry)
          (Array.map (fun r -> r.Eqn.vars) selection.Algorithm1.rows)
          b
  in
  { selection; values; obs }

let solve (selection : Algorithm1.selection) obs =
  let b =
    Array.map
      (fun r -> Observations.log_all_good_prob obs r.Eqn.paths)
      selection.Algorithm1.rows
  in
  solve_b selection obs b

let solve_with_counts (selection : Algorithm1.selection) obs ~counts =
  let n_rows = Array.length selection.Algorithm1.rows in
  if Array.length counts <> n_rows then
    invalid_arg "Prob_engine.solve_with_counts: one count per row expected";
  solve_b selection obs (Observations.smoothed_log_probs obs counts)

(* The float min/max below spell out Stdlib's polymorphic [min a b = if
   a <= b then a else b] and [max a b = if a >= b then a else b] with the
   operands in the same order, so every result — ±0, nan, ±inf — is
   bitwise what the polymorphic versions return; typed at [float], the
   comparisons compile to machine compares instead of boxing both
   operands and calling [caml_compare]. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

(* Inlined: as a call, its argument and its result would each be boxed. *)
let[@inline] clamp01 x = fmax 0.0 (fmin 1.0 x)

let var_of t s = Eqn.find t.selection.Algorithm1.registry s

let good_prob_est t s =
  match var_of t s with
  | None -> None
  | Some v -> Some (clamp01 (exp t.values.(v)))

let good_prob t s =
  match var_of t s with
  | Some v when identifiable t v -> Some (clamp01 (exp t.values.(v)))
  | Some _ | None -> None

let model t = t.selection.Algorithm1.model
let effective t = t.selection.Algorithm1.effective

(* Observed dependence between the two links a clean witness pair [w] =
   [|p; q|] separates (p ∋ a, q ∋ b, sharing no other effective link;
   {!Readout.chain}): the excess joint congestion of Y_p and Y_q over
   independence, normalized by its maximum.  0 = the witnesses congest
   independently, 1 = they always congest together. *)
let witness_dependence t w =
  let tt = float_of_int (Observations.t_intervals t.obs) in
  let gp = float_of_int (Observations.good_count t.obs ~path:w.(0)) /. tt
  and gq = float_of_int (Observations.good_count t.obs ~path:w.(1)) /. tt
  and gpq = float_of_int (Observations.all_good_count t.obs w) /. tt in
  let cp = 1.0 -. gp and cq = 1.0 -. gq in
  let joint = 1.0 -. gp -. gq +. gpq in
  let indep = cp *. cq in
  let cap = fmin cp cq -. indep in
  (* A small cap amplifies sampling noise into spurious dependence;
     demand both a solid cap and a strong signal before leaving the
     independent-split reading. *)
  if cap <= 0.05 then 0.0
  else
    let rho = clamp01 ((joint -. indep) /. cap) in
    if rho < 0.5 then 0.0 else rho

(* Quotient estimates for an inexpressible singleton: whenever two
   variables B and B∪{e} are both identifiable, G_{B∪e}/G_B equals G_e
   exactly when e shares no congestion cause with B — e.g. a destination
   cluster where two paths branch after a common upstream link.  Take
   the median of every such quotient ([pairs], at least one pair;
   {!Readout.chain}). *)
let[@inline] quotient_good_prob t pairs =
  let n = Array.length pairs / 2 in
  (* The quotients sorted under [Float.compare] by insertion, taken in
     descending pair order and each placed after its equals: the order a
     stable sort of them in that order gives, so position [n / 2] is
     bitwise the element a sorted list would hold there. *)
  let qs = Array.create_float n in
  for c = 0 to n - 1 do
    let i = n - 1 - c in
    let q = exp (t.values.(pairs.(2 * i)) -. t.values.(pairs.((2 * i) + 1))) in
    let j = ref c in
    while !j > 0 && Float.compare qs.(!j - 1) q > 0 do
      qs.(!j) <- qs.(!j - 1);
      decr j
    done;
    qs.(!j) <- q
  done;
  clamp01 qs.(n / 2)

type fallback = [ `Whole | `Split | `Adaptive ]

(* Link [e]'s marginal, read through its entry of [plan].  Inlined into
   both readers below, so that a pass over the links boxes no float. *)
let[@inline] marginal strategy t plan e =
  match plan.(e) with
  | Readout.Certified_good | Readout.Uncovered -> 0.0
  | Readout.Singleton v -> clamp01 (1.0 -. exp t.values.(v))
  | Readout.Chain { var = v; size; witnesses; quotients } -> (
      match strategy with
      | `Whole -> clamp01 (1.0 -. exp t.values.(v))
      | `Split -> clamp01 (1.0 -. exp (t.values.(v) /. float_of_int size))
      | `Adaptive ->
          (* Unidentifiable chain link. Observed witness-path dependence
             decides the reading: correlated chains take the
             whole-subset marginal; otherwise a quotient estimate if the
             branching structure offers one, else an even log-space
             split. *)
          let rho = ref 0.0 in
          for i = 0 to Array.length witnesses - 1 do
            rho := fmax !rho (witness_dependence t witnesses.(i))
          done;
          let rho = !rho in
          let k = float_of_int size in
          if rho >= 0.5 then
            clamp01 (1.0 -. exp (t.values.(v) *. (rho +. ((1.0 -. rho) /. k))))
          else if Array.length quotients > 0 then
            clamp01 (1.0 -. quotient_good_prob t quotients)
          else clamp01 (1.0 -. exp (t.values.(v) /. k)))

let link_marginal_with strategy t e =
  let plan = t.selection.Algorithm1.readout.Readout.entries in
  if e < 0 || e >= Array.length plan then
    invalid_arg "Prob_engine.link_marginal: link out of range";
  marginal strategy t plan e

let link_marginal t e = link_marginal_with `Adaptive t e

let link_marginals t =
  let plan = t.selection.Algorithm1.readout.Readout.entries in
  let marginals = Array.create_float (Array.length plan) in
  for e = 0 to Array.length plan - 1 do
    marginals.(e) <- marginal `Adaptive t plan e
  done;
  marginals

let link_identifiable t e =
  let plan = t.selection.Algorithm1.readout in
  let flags = plan.Readout.link_identifiable in
  if e < 0 || e >= Array.length flags then
    invalid_arg "Prob_engine.link_identifiable: link out of range";
  flags.(e)

(* Σ_{A ⊆ set} (−1)^{|A|} G(A ∪ base): the inclusion–exclusion core used
   for both congestion probabilities and pattern probabilities. [get]
   fetches a good-probability or None. *)
let inclusion_exclusion ~get ~set ~base =
  let k = Array.length set in
  if k > 20 then invalid_arg "Prob_engine: subset too large";
  let total = ref 0.0 in
  (try
     for mask = 0 to (1 lsl k) - 1 do
       let members = ref (Array.to_list base) and bits = ref 0 in
       for i = 0 to k - 1 do
         if mask land (1 lsl i) <> 0 then begin
           members := set.(i) :: !members;
           incr bits
         end
       done;
       let g =
         match !members with
         | [] -> Some 1.0
         | ms -> get (Array.of_list ms)
       in
       match g with
       | None -> raise Exit
       | Some g ->
           let sign = if !bits mod 2 = 0 then 1.0 else -1.0 in
           total := !total +. (sign *. g)
     done;
     Some !total
   with Exit -> None)

let congestion_prob t ~corr links =
  let m = model t in
  (* Links outside the effective set are never congested: if any member
     is not effective, the joint congestion probability is 0. *)
  if Array.exists (fun e -> not (Bitset.get (effective t) e)) links then
    Some 0.0
  else
    let get ms = good_prob t (Subsets.make m ~corr ms) in
    Option.map clamp01 (inclusion_exclusion ~get ~set:links ~base:[||])

let set_congestion_prob t links =
  let m = model t in
  let by_corr = Hashtbl.create 4 in
  Array.iter
    (fun e ->
      let c = m.Model.corr_of_link.(e) in
      let prev = try Hashtbl.find by_corr c with Not_found -> [] in
      Hashtbl.replace by_corr c (e :: prev))
    links;
  Hashtbl.fold
    (fun c es acc ->
      match acc with
      | None -> None
      | Some p -> (
          match congestion_prob t ~corr:c (Array.of_list es) with
          | None -> None
          | Some q -> Some (p *. q)))
    by_corr (Some 1.0)

let log_floor = log 1e-12

let pattern_logprob t ~corr ~congested ~good =
  let m = model t in
  let exact =
    let get ms = good_prob t (Subsets.make m ~corr ms) in
    inclusion_exclusion ~get ~set:congested ~base:good
  in
  match exact with
  | Some p when p > 0.0 -> max log_floor (log (min 1.0 p))
  | Some _ -> log_floor
  | None ->
      (* Independence fallback from link marginals. *)
      let acc = ref 0.0 in
      Array.iter
        (fun e ->
          let p = min (1.0 -. 1e-12) (max 1e-12 (link_marginal t e)) in
          acc := !acc +. log p)
        congested;
      Array.iter
        (fun e ->
          let p = min (1.0 -. 1e-12) (max 1e-12 (link_marginal t e)) in
          acc := !acc +. log (1.0 -. p))
        good;
      max log_floor !acc

let ambiguous_links t =
  Identifiability.ambiguous_links (model t) ~effective:(effective t)
