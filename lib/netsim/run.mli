(** Experiment execution: simulate [T] intervals of congestion and
    measurement over an overlay, keeping both the hidden truth (per-
    interval link states, per-epoch factor probabilities) and the
    observable data (per-interval path statuses).

    The tomography algorithms only ever see the observable part; the
    truth is for scoring. *)

type measurement =
  | Ideal
      (** a path is congested iff one of its links is (Separability +
          perfect E2E Monitoring — the paper's experimental setting) *)
  | Probes of { per_path : int; f : float }
      (** packet-level probing with the loss model of {!Probe} *)

type dynamics =
  | Stationary
  | Redraw_every of int
      (** the paper's "No Stationarity": re-draw the congestion
          probabilities of the congestible links every [k] intervals *)

type epoch = {
  length : int;
  probs : float array;
  model : Factor_model.t;
      (** the factor model those probabilities induce, built once at
          simulation time and reused by the [true_*] accessors *)
}

type result = {
  overlay : Tomo_topology.Overlay.t;
  t_intervals : int;
  link_congested : Tomo_util.Bitset.t array;
      (** per interval: bit [e] set iff link [e] congested — ground
          truth for inference scoring *)
  path_good : Tomo_util.Bitset.t array;
      (** per path: bit [t] set iff the path was measured good in
          interval [t] — the observable input to tomography *)
  epochs : epoch list;  (** factor probabilities per stretch of time *)
}

(** [run ~scenario ~dynamics ~measurement ~t_intervals ~rng] simulates the
    experiment.  The per-epoch probability draws run sequentially, then
    the intervals fan out over the default {!Tomo_par.Pool}: every
    interval derives private congestion-state and loss streams from its
    index ([Rng.split_int]), so the result is bit-identical whatever the
    pool size or schedule ([-j1 == -jN]).  @raise Invalid_argument if
    [t_intervals <= 0] or [Redraw_every k] with [k <= 0]. *)
val run :
  scenario:Scenario.t ->
  dynamics:dynamics ->
  measurement:measurement ->
  t_intervals:int ->
  rng:Tomo_util.Rng.t ->
  result

(** Ground truth over the whole experiment (time-averaged over epochs
    when dynamics are non-stationary), in closed form from the factor
    probabilities. *)

val true_link_marginal : result -> int -> float
val true_good_prob : result -> int array -> float
val true_congestion_prob : result -> int array -> float
