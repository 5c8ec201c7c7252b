(* Reference oracles for the readout plan ({!Tomo.Readout}) and the
   streamed grow phase of {!Tomo.Algorithm1}.

   [marginal_with] / [identifiable] read a link's marginal per query:
   every query finds the smallest registered variable containing the
   link, sweeps every witness pair keeping the first of fewest shared
   effective links, and scans the registry for quotient pairs.
   [select] is Algorithm 1 on the generic bit-set path
   (test/oracles/bitset_path.ml): its registry, enumeration, seed pools
   and rows come from the model's bit sets, not from the signature
   table.  Its grow phase materializes each variable's whole candidate
   list (every resolved path set among the first 300 subsets of its
   pool, up to 8 paths) on the first visit and skips nothing; its seed
   basis comes from the sorted-merge elimination in test/oracles (and
   every seed checks that the library's seed elimination writes that
   basis bit for bit), it orders the grow phase with Stdlib's
   [Array.sort], and it reads the identifiable variables off the final
   basis itself.  [heuristic] is the Correlation-heuristic pipeline with
   its rows grown on the same path.  The library must agree with all of
   them bit for bit. *)

module Bitset = Tomo_util.Bitset
module Bitset_path = Tomo_oracles.Bitset_path
module Combin = Tomo_util.Combin
module Dense = Tomo_oracles.Dense
module Nullspace = Tomo_linalg.Nullspace
module Sparse_gauss = Tomo_linalg.Sparse_gauss
module Sparse_rref = Tomo_oracles.Sparse_rref
open Tomo

(* ------------------------------------------------------------------ *)
(* Per-query readout                                                   *)
(* ------------------------------------------------------------------ *)

let clamp01 x = max 0.0 (min 1.0 x)
let sel (t : Prob_engine.t) = t.Prob_engine.selection
let model t = (sel t).Algorithm1.model
let effective t = (sel t).Algorithm1.effective
let var_identifiable t v = (sel t).Algorithm1.identifiable.(v)
let var_of t s = Eqn.find (sel t).Algorithm1.registry s

let smallest_var_containing t e =
  let m = model t in
  let c = m.Model.corr_of_link.(e) in
  match var_of t (Subsets.make m ~corr:c [| e |]) with
  | Some v -> Some v
  | None ->
      let best = ref None in
      for v = 0 to Eqn.n_vars (sel t).Algorithm1.registry - 1 do
        let s = Eqn.subset_of_var (sel t).Algorithm1.registry v in
        if
          s.Subsets.corr = c
          && Array.exists (fun x -> x = e) s.Subsets.links
        then
          match !best with
          | Some (_, size) when size <= Array.length s.Subsets.links -> ()
          | _ -> best := Some (v, Array.length s.Subsets.links)
      done;
      Option.map fst !best

let link_dependence t a b =
  let m = model t in
  let eff = effective t in
  let best = ref None in
  Bitset.iter
    (fun p ->
      Bitset.iter
        (fun q ->
          if
            p <> q
            && (not (Bitset.get m.Model.path_links.(p) b))
            && not (Bitset.get m.Model.path_links.(q) a)
          then begin
            let shared =
              Bitset.inter
                (Bitset.inter m.Model.path_links.(p) m.Model.path_links.(q))
                eff
            in
            Bitset.clear shared a;
            Bitset.clear shared b;
            let shared_eff = Bitset.count shared in
            match !best with
            | Some (_, _, s) when s <= shared_eff -> ()
            | _ -> best := Some (p, q, shared_eff)
          end)
        m.Model.link_paths.(b))
    m.Model.link_paths.(a);
  match !best with
  | None -> None
  | Some (p, q, shared_eff) when shared_eff = 0 ->
      let obs = t.Prob_engine.obs in
      let tt = float_of_int (Observations.t_intervals obs) in
      let gp = float_of_int (Observations.all_good_count obs [| p |]) /. tt
      and gq = float_of_int (Observations.all_good_count obs [| q |]) /. tt
      and gpq =
        float_of_int (Observations.all_good_count obs [| p; q |]) /. tt
      in
      let cp = 1.0 -. gp and cq = 1.0 -. gq in
      let joint = 1.0 -. gp -. gq +. gpq in
      let indep = cp *. cq in
      let cap = min cp cq -. indep in
      if cap <= 0.05 then Some 0.0
      else
        let rho = max 0.0 (min 1.0 ((joint -. indep) /. cap)) in
        Some (if rho < 0.5 then 0.0 else rho)
  | Some _ -> None

let quotient_good_prob t e =
  let m = model t in
  let reg = (sel t).Algorithm1.registry in
  let c = m.Model.corr_of_link.(e) in
  let quotients = ref [] in
  for v = 0 to Eqn.n_vars reg - 1 do
    if var_identifiable t v then begin
      let s = Eqn.subset_of_var reg v in
      if
        s.Subsets.corr = c
        && Array.length s.Subsets.links >= 2
        && Array.exists (fun x -> x = e) s.Subsets.links
      then begin
        let b_links =
          Array.of_list
            (List.filter (fun x -> x <> e) (Array.to_list s.Subsets.links))
        in
        match var_of t (Subsets.make m ~corr:c b_links) with
        | Some vb when var_identifiable t vb ->
            quotients :=
              exp (t.Prob_engine.values.(v) -. t.Prob_engine.values.(vb))
              :: !quotients
        | Some _ | None -> ()
      end
    end
  done;
  match List.sort compare !quotients with
  | [] -> None
  | qs -> Some (clamp01 (List.nth qs (List.length qs / 2)))

let marginal_with strategy t e =
  let values = t.Prob_engine.values in
  if not (Bitset.get (effective t) e) then 0.0
  else
    match smallest_var_containing t e with
    | None -> 0.0
    | Some v -> (
        let s = Eqn.subset_of_var (sel t).Algorithm1.registry v in
        let size = Array.length s.Subsets.links in
        if size = 1 then clamp01 (1.0 -. exp values.(v))
        else
          match strategy with
          | `Whole -> clamp01 (1.0 -. exp values.(v))
          | `Split -> clamp01 (1.0 -. exp (values.(v) /. float_of_int size))
          | `Adaptive -> (
              let rho =
                Array.fold_left
                  (fun acc x ->
                    if x = e then acc
                    else
                      match link_dependence t e x with
                      | Some d -> max acc d
                      | None -> acc)
                  0.0 s.Subsets.links
              in
              if rho >= 0.5 then
                let k = float_of_int size in
                let z = values.(v) *. (rho +. ((1.0 -. rho) /. k)) in
                clamp01 (1.0 -. exp z)
              else
                match quotient_good_prob t e with
                | Some g -> clamp01 (1.0 -. g)
                | None ->
                    clamp01 (1.0 -. exp (values.(v) /. float_of_int size))))

let identifiable t e =
  let m = model t in
  if not (Bitset.get (effective t) e) then true
  else
    match var_of t (Subsets.make m ~corr:m.Model.corr_of_link.(e) [| e |]) with
    | Some v -> var_identifiable t v
    | None -> false

(* ------------------------------------------------------------------ *)
(* Materializing grow                                                  *)
(* ------------------------------------------------------------------ *)

type selection = {
  rows : Eqn.row array;
  nullity : int;
  identifiable_vars : bool array;
}

let limit_per_set = 500
let max_pathset_size = 8
let max_candidates = 300
let tol = 1e-8

(* Every resolved row among the first [max_candidates] subsets of [pool]
   in increasing size, lexicographic within a size. *)
let materialize_candidates model ~effective registry ~pool =
  let acc = ref [] and visited = ref 0 in
  (try
     for k = 1 to min max_pathset_size (Array.length pool) do
       Combin.iter_combinations pool k (fun paths ->
           if !visited >= max_candidates then raise Exit;
           incr visited;
           match Bitset_path.row model ~effective registry ~paths with
           | Some r -> acc := r :: !acc
           | None -> ())
     done
   with Exit -> ());
  Array.of_list (List.rev !acc)

(* Lines 1-5 of Algorithm 1: the registry, every variable's candidate
   pool, and the seed rows the greedy in-order independence test
   keeps. *)
let seed ~config model obs =
  let effective = Subsets.effective_links model obs in
  let registry = Bitset_path.registry () in
  let (_ : int) =
    Bitset_path.register_single_path_vars model ~effective registry
  in
  let targets =
    Bitset_path.enumerate model ~effective
      ~max_size:config.Algorithm1.max_subset_size ~limit_per_set
  in
  List.iter (fun s -> ignore (Bitset_path.add registry s)) targets;
  let n = Bitset_path.n_vars registry in
  let seed_pools = Array.make n [||] in
  let seed_rows = ref [] in
  Array.iteri
    (fun v s ->
      let pool = Bitset_path.candidate_paths model ~effective s in
      if not (Bitset.is_empty pool) then begin
        let paths = Array.of_list (Bitset.to_list pool) in
        seed_pools.(v) <- paths;
        match Bitset_path.row model ~effective registry ~paths with
        | Some row -> seed_rows := row :: !seed_rows
        | None -> ()
      end)
    (Bitset_path.subsets registry);
  let seed_rows = Array.of_list (List.rev !seed_rows) in
  let keep =
    Sparse_gauss.select_independent ~tol ~cols:n
      (Array.map (fun r -> r.Eqn.vars) seed_rows)
  in
  let kept = List.filteri (fun i _ -> keep.(i)) (Array.to_list seed_rows) in
  (effective, registry, seed_pools, kept)

let seed_system ?(config = Algorithm1.default_config) model obs =
  let _, registry, _, kept = seed ~config model obs in
  ( Bitset_path.n_vars registry,
    Array.of_list (List.map (fun r -> r.Eqn.vars) kept) )

let select ?(config = Algorithm1.default_config) ?witness_k model obs =
  let effective, registry, seed_pools, kept = seed ~config model obs in
  let n = Bitset_path.n_vars registry in
  (* A variable is identifiable iff its row of the final basis is within
     1e-6 of zero in every column. *)
  let finish rows columns =
    {
      rows;
      nullity = Array.length columns;
      identifiable_vars =
        Array.init n (fun v ->
            Array.for_all (fun col -> abs_float col.(v) <= 1e-6) columns);
    }
  in
  if n = 0 then finish [||] [||]
  else begin
    let kept_vars = Array.of_list (List.map (fun r -> r.Eqn.vars) kept) in
    let n_kept = Array.length kept_vars in
    let basis =
      Dense.columns (Sparse_rref.basis ~tol ~rows:n_kept ~cols:n kept_vars)
    in
    let same_bits a b =
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    in
    let seeded =
      Nullspace.columns
        (Nullspace.of_incidence ~tol ~rows:n_kept ~cols:n kept_vars)
    in
    if
      not
        (Array.length seeded = Array.length basis
        && Array.for_all2 (Array.for_all2 same_bits) seeded basis)
    then failwith "Reference.select: seed elimination differs from the oracle";
    let tracker =
      Nullspace.of_columns ~tol ?witness_k ~nvars:n basis
    in
    let rows = ref (List.rev kept) in
    let cands = Array.make n None and cursor = Array.make n 0 in
    let candidates_of v =
      match cands.(v) with
      | Some c -> c
      | None ->
          let c =
            materialize_candidates model ~effective registry
              ~pool:seed_pools.(v)
          in
          cands.(v) <- Some c;
          c
    in
    let continue_ = ref true in
    while !continue_ && Nullspace.dim tracker > 0 do
      let order =
        Array.init n (fun v -> (v, Nullspace.row_weight tracker v))
      in
      Array.sort (fun (_, a) (_, b) -> compare b a) order;
      let progress = ref false in
      let i = ref 0 in
      while (not !progress) && !i < n do
        let v, w = order.(!i) in
        incr i;
        if w > 0 then begin
          let c = candidates_of v in
          while (not !progress) && cursor.(v) < Array.length c do
            let row = c.(cursor.(v)) in
            cursor.(v) <- cursor.(v) + 1;
            if Nullspace.add_incidence tracker row.Eqn.vars then begin
              rows := row :: !rows;
              progress := true
            end
          done
        end
      done;
      if not !progress then continue_ := false
    done;
    finish (Array.of_list (List.rev !rows)) (Nullspace.columns tracker)
  end

(* ------------------------------------------------------------------ *)
(* Correlation-heuristic on the bit-set path                           *)
(* ------------------------------------------------------------------ *)

(* {!Correlation_heuristic.compute} step for step, with the baseline
   pool's rows grown on the generic path; the library registry the
   solve needs is then filled with the same subsets in the same order.
   The registry's subsets come back too, for the caller to compare. *)
let heuristic model obs =
  let effective = Subsets.effective_links model obs in
  let oracle = Bitset_path.registry () in
  let rows =
    Array.of_list
      (List.filter_map
         (fun paths -> Bitset_path.row_grow model ~effective oracle ~paths)
         (Array.to_list (Baseline_rows.pools model ~effective)))
  in
  let subsets = Bitset_path.subsets oracle in
  let registry = Eqn.registry (Signatures.build model ~effective) in
  Array.iter (fun s -> ignore (Eqn.add registry s)) subsets;
  let tr = Nullspace.tracker (Array.length subsets) in
  Array.iter (fun row -> ignore (Nullspace.add_incidence tr row.Eqn.vars)) rows;
  let identifiable = Nullspace.determined tr in
  let selection =
    {
      Algorithm1.model;
      effective;
      registry;
      rows;
      seeded = Tomo_util.Bitset.create (Eqn.n_vars registry);
      nullity = Nullspace.dim tr;
      identifiable;
      factor = None;
      readout = Readout.build model ~effective registry ~identifiable;
    }
  in
  let engine = Prob_engine.solve selection obs in
  let marginals =
    Array.init model.Model.n_links
      (Prob_engine.link_marginal_with `Whole engine)
  in
  ( {
      Pc_result.marginals;
      identifiable = selection.Algorithm1.readout.Readout.link_identifiable;
      effective;
      n_vars = Array.length subsets;
      n_rows = Array.length rows;
    },
    engine,
    subsets )
