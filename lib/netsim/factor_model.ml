module Overlay = Tomo_topology.Overlay
module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng

type t = { ov : Overlay.t; probs : float array }

let make ov probs =
  if Array.length probs <> ov.Overlay.n_factors then
    invalid_arg "Factor_model.make: wrong number of factor probabilities";
  Array.iter
    (fun p ->
      if p < 0.0 || p > 1.0 || Float.is_nan p then
        invalid_arg "Factor_model.make: probability outside [0,1]")
    probs;
  { ov; probs }

let draw_interval t rng =
  let factor_state = Array.map (fun q -> Rng.bool rng ~p:q) t.probs in
  let congested = Bitset.create (Overlay.n_links t.ov) in
  Array.iter
    (fun (l : Overlay.link) ->
      if Array.exists (fun f -> factor_state.(f)) l.Overlay.factors then
        Bitset.set congested l.Overlay.id)
    t.ov.Overlay.links;
  congested

(* Distinct factors backing a set of links. *)
let factors_of_set t s =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      Array.iter
        (fun f -> if not (Hashtbl.mem seen f) then Hashtbl.add seen f ())
        t.ov.Overlay.links.(e).Overlay.factors)
    s;
  seen

let good_prob t s =
  let seen = factors_of_set t s in
  Hashtbl.fold (fun f () acc -> acc *. (1.0 -. t.probs.(f))) seen 1.0

let link_marginal t e = 1.0 -. good_prob t [| e |]

let congestion_prob t s =
  let n = Array.length s in
  if n > 25 then invalid_arg "Factor_model.congestion_prob: set too large";
  (* P(all congested) = Σ_{sub ⊆ s} (−1)^{|sub|} P(sub all good). *)
  let total = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let sub = ref [] and bits = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        sub := s.(i) :: !sub;
        incr bits
      end
    done;
    let sign = if !bits mod 2 = 0 then 1.0 else -1.0 in
    total := !total +. (sign *. good_prob t (Array.of_list !sub))
  done;
  max 0.0 (min 1.0 !total)
