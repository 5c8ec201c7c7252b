let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let start () = if Metrics.enabled () then now () else 0.0

let observe_since h t0 =
  if Metrics.enabled () && t0 > 0.0 then Metrics.observe h (now () -. t0)
