type result = { solution : float array; rank : int; residual_norm : float }

module Obs = Tomo_obs

let c_solves = Obs.Metrics.counter "lstsq_solves"
let h_residual = Obs.Metrics.histogram "lstsq_residual_norm"

let solve ?tol a b =
  if Array.length b <> Matrix.rows a then
    invalid_arg "Lstsq.solve: size mismatch";
  Obs.Trace.with_span "lstsq.solve" @@ fun () ->
  let qr = Qr.decompose ?tol a in
  let y = Qr.apply_qt qr b in
  let x = Qr.solve_r qr y in
  let r = Dense.mul_vec a x in
  let residual = ref 0.0 in
  Array.iteri (fun i ri ->
      let d = ri -. b.(i) in
      residual := !residual +. (d *. d))
    r;
  Obs.Metrics.incr c_solves;
  Obs.Metrics.observe h_residual (sqrt !residual);
  { solution = x; rank = qr.Qr.rank; residual_norm = sqrt !residual }
