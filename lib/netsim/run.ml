module Overlay = Tomo_topology.Overlay
module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Obs = Tomo_obs
module Pool = Tomo_par.Pool

let c_intervals = Obs.Metrics.counter "sim_intervals"
let c_epochs = Obs.Metrics.counter "sim_epochs"
let c_probe_packets = Obs.Metrics.counter "sim_probe_packets"

type measurement = Ideal | Probes of { per_path : int; f : float }
type dynamics = Stationary | Redraw_every of int
type epoch = { length : int; probs : float array; model : Factor_model.t }

type result = {
  overlay : Overlay.t;
  t_intervals : int;
  link_congested : Bitset.t array;
  path_good : Bitset.t array;
  epochs : epoch list;
}

(* Simulate one interval in isolation.  All randomness comes from child
   generators derived by [Rng.split_int] from the interval index, so the
   interval can run on any domain, in any order, and produce exactly the
   same bits — the invariant behind -j1 == -jN. *)
let simulate_interval ~ov ~n_links ~n_paths ~measurement ~state_rng ~loss_rng
    ~model t =
  let st_rng = Rng.split_int state_rng t in
  let congested = Factor_model.draw_interval model st_rng in
  let good = Bitset.create n_paths in
  (match measurement with
  | Ideal ->
      Array.iter
        (fun (p : Overlay.path) ->
          let is_congested =
            Array.exists (Bitset.get congested) p.Overlay.links
          in
          if not is_congested then Bitset.set good p.Overlay.id)
        ov.Overlay.paths
  | Probes { per_path; f } ->
      Obs.Metrics.incr ~by:(per_path * n_paths) c_probe_packets;
      let ls_rng = Rng.split_int loss_rng t in
      let losses =
        Array.init n_links (fun e ->
            Probe.loss_rate ls_rng ~congested:(Bitset.get congested e))
      in
      Array.iter
        (fun (p : Overlay.path) ->
          let congested_measured =
            Probe.measure_path ls_rng ~losses ~links:p.Overlay.links
              ~n_probes:per_path ~f
          in
          if not congested_measured then Bitset.set good p.Overlay.id)
        ov.Overlay.paths);
  (congested, good)

let run ~scenario ~dynamics ~measurement ~t_intervals ~rng =
  if t_intervals <= 0 then invalid_arg "Run.run: no intervals";
  Obs.Trace.with_span "netsim.run" @@ fun () ->
  if Obs.Trace.enabled () then
    Obs.Trace.add_attr "t_intervals" (string_of_int t_intervals);
  let epoch_len =
    match dynamics with
    | Stationary -> t_intervals
    | Redraw_every k ->
        if k <= 0 then invalid_arg "Run.run: non-positive epoch";
        k
  in
  let ov = Scenario.overlay scenario in
  let n_links = Overlay.n_links ov and n_paths = Overlay.n_paths ov in
  let prob_rng = Rng.split rng ~label:"probs" in
  let state_rng = Rng.split rng ~label:"states" in
  let loss_rng = Rng.split rng ~label:"loss" in
  (* Sequential prologue: the per-epoch probability draws consume
     [prob_rng] in epoch order (exactly as the interleaved loop used
     to), and each epoch's factor model is built once here — both so the
     interval fan-out below needs no shared mutable state and so the
     [true_*] accessors can reuse the models instead of rebuilding one
     per epoch per query. *)
  let n_epochs = (t_intervals + epoch_len - 1) / epoch_len in
  let epochs =
    let rev = ref [] in
    for k = 0 to n_epochs - 1 do
      Obs.Metrics.incr c_epochs;
      let probs = Scenario.draw_probs scenario prob_rng in
      let length = min epoch_len (t_intervals - (k * epoch_len)) in
      rev := { length; probs; model = Factor_model.make ov probs } :: !rev
    done;
    List.rev !rev
  in
  let epoch_models = Array.of_list (List.map (fun e -> e.model) epochs) in
  let columns =
    Obs.Trace.with_span "netsim.simulate" (fun () ->
        Obs.Metrics.incr ~by:t_intervals c_intervals;
        (* One task per interval over the domain pool; each writes only
           its own slot of the result array, and its good-path column is
           a private bitset, so no two domains ever share a word. *)
        Pool.parallel_map
          (fun t ->
            simulate_interval ~ov ~n_links ~n_paths ~measurement ~state_rng
              ~loss_rng
              ~model:epoch_models.(t / epoch_len)
              t)
          (Array.init t_intervals (fun t -> t)))
  in
  (* Transpose the per-interval good columns into the per-path bit rows
     the estimators consume — sequentially, after the fan-out, so the
     packed words of each row are written by one domain only. *)
  let link_congested = Array.map fst columns in
  let path_good = Array.init n_paths (fun _ -> Bitset.create t_intervals) in
  Array.iteri
    (fun t (_, good) ->
      (* [iter] walks set bits word-by-word; [p] comes straight from the
         column so the per-write bounds check is redundant. *)
      Bitset.iter (fun p -> Bitset.unsafe_set path_good.(p) t) good)
    columns;
  { overlay = ov; t_intervals; link_congested; path_good; epochs }

(* Time-weighted average of a per-epoch quantity, over the factor
   models cached at simulation time (rebuilding them here cost
   O(epochs) [Factor_model.make] validations per query — per link, per
   subset — which dominated peer-report scoring). *)
let epoch_average result f =
  let total = float_of_int result.t_intervals in
  List.fold_left
    (fun acc e -> acc +. (float_of_int e.length /. total *. f e.model))
    0.0 result.epochs

let true_link_marginal result e =
  epoch_average result (fun m -> Factor_model.link_marginal m e)

let true_good_prob result s =
  epoch_average result (fun m -> Factor_model.good_prob m s)

let true_congestion_prob result s =
  epoch_average result (fun m -> Factor_model.congestion_prob m s)
