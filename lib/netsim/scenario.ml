module Overlay = Tomo_topology.Overlay
module Rng = Tomo_util.Rng

type kind = Random | Concentrated | No_independence

let kind_to_string = function
  | Random -> "random"
  | Concentrated -> "concentrated"
  | No_independence -> "no-independence"

type t = {
  ov : Overlay.t;
  k : kind;
  congestible : int array;  (* fixed 10%-of-links set, marginals > 0 *)
  sharing : int array array;  (* factor -> links backed *)
}

let kind t = t.k
let overlay t = t.ov
let congestible_links t = t.congestible

let edge_links ov =
  let is_edge = Array.make (Overlay.n_links ov) false in
  Array.iter
    (fun (p : Overlay.path) ->
      let n = Array.length p.Overlay.links in
      if n > 0 then is_edge.(p.Overlay.links.(n - 1)) <- true)
    ov.Overlay.paths;
  let acc = ref [] in
  Array.iteri (fun l e -> if e then acc := l :: !acc) is_edge;
  Array.of_list (List.rev !acc)

let target_count ov frac =
  max 1 (int_of_float (frac *. float_of_int (Overlay.n_links ov)))

let make ov ~kind:k ~frac ~rng =
  if frac <= 0.0 || frac > 1.0 then invalid_arg "Scenario.make: bad frac";
  let sharing = Overlay.links_sharing_factor ov in
  let target = target_count ov frac in
  let pick_set seeds =
    (* First [target] distinct links in seed order. *)
    let chosen = Hashtbl.create 64 in
    let acc = ref [] in
    Array.iter
      (fun e ->
        if Hashtbl.length chosen < target && not (Hashtbl.mem chosen e)
        then begin
          Hashtbl.add chosen e ();
          acc := e :: !acc
        end)
      seeds;
    Array.of_list (List.rev !acc)
  in
  let congestible =
    match k with
    | Random ->
        let seeds = Array.init (Overlay.n_links ov) (fun i -> i) in
        Rng.shuffle rng seeds;
        pick_set seeds
    | Concentrated ->
        (* Whole edge regions: group the edge pool by owning AS and
           consume whole groups in random order, so sibling
           destination-edge links congest in the same experiment — the
           regime in which Sparsity over-blames the aggregation links
           above them. *)
        let pool = edge_links ov in
        let by_as = Hashtbl.create 64 in
        Array.iter
          (fun e ->
            let owner = ov.Overlay.links.(e).Overlay.owner_as in
            let prev =
              try Hashtbl.find by_as owner with Not_found -> []
            in
            Hashtbl.replace by_as owner (e :: prev))
          pool;
        let groups =
          Hashtbl.fold (fun _ ls acc -> Array.of_list ls :: acc) by_as []
          |> Array.of_list
        in
        Rng.shuffle rng groups;
        pick_set (Array.concat (Array.to_list groups))
    | No_independence ->
        (* Links covered by *shared* factors, in random order: every
           chosen link has a correlated partner. *)
        let shared =
          Array.to_list sharing
          |> List.filter (fun ls -> Array.length ls >= 2)
          |> Array.of_list
        in
        if Array.length shared = 0 then
          invalid_arg
            "Scenario.make: topology has no shared factors for \
             No_independence";
        Rng.shuffle rng shared;
        (* Consume whole factor groups so every selected link keeps its
           correlation partner (a cut group would leave a partner-less
           link). May slightly overshoot the target. *)
        let chosen = Hashtbl.create 64 in
        let acc = ref [] in
        Array.iter
          (fun group ->
            if Hashtbl.length chosen < target then
              Array.iter
                (fun e ->
                  if not (Hashtbl.mem chosen e) then begin
                    Hashtbl.add chosen e ();
                    acc := e :: !acc
                  end)
                group)
          shared;
        Array.of_list (List.rev !acc)
  in
  { ov; k; congestible; sharing }

(* Factors of [e] eligible under the scenario's correlation policy. *)
let eligible_factors t e =
  let fs = t.ov.Overlay.links.(e).Overlay.factors in
  let is_congestible = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.add is_congestible l ()) t.congestible;
  let filtered =
    match t.k with
    | Random -> fs
    | Concentrated ->
        (* Prefer private factors: concentration without correlation. *)
        let private_fs =
          Array.of_list
            (List.filter
               (fun f -> Array.length t.sharing.(f) = 1)
               (Array.to_list fs))
        in
        if Array.length private_fs > 0 then private_fs else fs
    | No_independence ->
        (* Prefer factors shared with another congestible link, so the
           correlation survives every epoch. *)
        let shared_fs =
          Array.of_list
            (List.filter
               (fun f ->
                 Array.exists
                   (fun l -> l <> e && Hashtbl.mem is_congestible l)
                   t.sharing.(f))
               (Array.to_list fs))
        in
        if Array.length shared_fs > 0 then shared_fs else fs
  in
  filtered

let draw_probs t rng =
  let probs = Array.make t.ov.Overlay.n_factors 0.0 in
  let order = Array.copy t.congestible in
  Rng.shuffle rng order;
  Array.iter
    (fun e ->
      (* Skip links already congestible through a factor activated for an
         earlier link this epoch. *)
      let already =
        Array.exists
          (fun f -> probs.(f) > 0.0)
          t.ov.Overlay.links.(e).Overlay.factors
      in
      if not already then begin
        let fs = eligible_factors t e in
        let f = fs.(Rng.int rng (Array.length fs)) in
        probs.(f) <- Rng.uniform rng ~lo:0.01 ~hi:0.99
      end)
    order;
  probs
