(** Descriptive statistics used by the evaluation harness.

    Everything operates on plain [float array] samples; no function
    mutates its input. *)

(** [mean xs] is the arithmetic mean.  @raise Invalid_argument on an empty
    sample. *)
val mean : float array -> float

(** [variance xs] is the unbiased sample variance (0 for singleton
    samples). *)
val variance : float array -> float

(** [quantile xs q] is the [q]-quantile ([0 <= q <= 1]) using linear
    interpolation between order statistics.  @raise Invalid_argument on
    an empty sample, [q] outside [0,1], or a NaN sample (NaN admits no
    order statistic; rejecting beats silently sorting it first). *)
val quantile : float array -> float -> float

(** [median xs] is [quantile xs 0.5]. *)
val median : float array -> float

(** [minimum xs] / [maximum xs].  @raise Invalid_argument on an empty
    sample or a NaN sample (the polymorphic [min]/[max] fold would
    otherwise return NaN from [minimum] but skip it in [maximum] —
    rejection keeps the pair consistent). *)
val minimum : float array -> float

val maximum : float array -> float

(** [mean_abs_error a b] is the mean of [|a.(i) - b.(i)|].
    @raise Invalid_argument on length mismatch or empty input. *)
val mean_abs_error : float array -> float array -> float

(** [cdf xs ~points] evaluates the empirical CDF of [xs] at each of
    [points], returning [(x, F(x))] pairs.  [F(x)] is the fraction of
    samples [<= x]. *)
val cdf : float array -> points:float array -> (float * float) list

(** [cdf_curve xs ~steps ~max_x] is the CDF sampled at [steps + 1] evenly
    spaced points from [0] to [max_x]. *)
val cdf_curve : float array -> steps:int -> max_x:float -> (float * float) list

(** [histogram ?out_of_range xs ~bins ~lo ~hi] counts samples per bin
    over [bins] equal-width bins covering [lo, hi).  Out-of-range
    samples (on either end, [x = hi] included) are handled per
    [out_of_range]: [`Clamp] (default) counts them in the nearest edge
    bin, [`Drop] excludes them.  NaN samples are always dropped. *)
val histogram :
  ?out_of_range:[ `Clamp | `Drop ] ->
  float array ->
  bins:int ->
  lo:float ->
  hi:float ->
  int array
