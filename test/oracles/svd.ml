type t = { u : Matrix.t; sigma : float array; v : Matrix.t }

module Obs = Tomo_obs

let c_decompositions = Obs.Metrics.counter "svd_decompositions"
let c_sweeps = Obs.Metrics.counter "svd_jacobi_sweeps"

(* One-sided Jacobi: rotate column pairs of a working copy W (initially
   A) and accumulate the rotations in V, until all column pairs are
   numerically orthogonal. Then sigma_j = ||W_j|| and U_j = W_j/sigma_j. *)
let decompose ?(eps = 1e-12) ?(max_sweeps = 60) a =
  let m = Matrix.rows a and n = Matrix.cols a in
  if m < n then invalid_arg "Svd.decompose: need rows >= cols";
  Obs.Trace.with_span "svd.decompose" @@ fun () ->
  let w = Dense.copy a in
  let v = Matrix.identity n in
  let col_dot j k =
    let acc = ref 0.0 in
    for i = 0 to m - 1 do
      acc := !acc +. (Matrix.get w i j *. Matrix.get w i k)
    done;
    !acc
  in
  let rotate c s j k =
    (* columns (j,k) <- (c·j - s·k, s·j + c·k) in both W and V *)
    for i = 0 to m - 1 do
      let wj = Matrix.get w i j and wk = Matrix.get w i k in
      Matrix.set w i j ((c *. wj) -. (s *. wk));
      Matrix.set w i k ((s *. wj) +. (c *. wk))
    done;
    for i = 0 to n - 1 do
      let vj = Matrix.get v i j and vk = Matrix.get v i k in
      Matrix.set v i j ((c *. vj) -. (s *. vk));
      Matrix.set v i k ((s *. vj) +. (c *. vk))
    done
  in
  let converged = ref false and sweeps = ref 0 in
  while (not !converged) && !sweeps < max_sweeps do
    incr sweeps;
    converged := true;
    for j = 0 to n - 2 do
      for k = j + 1 to n - 1 do
        let ajj = col_dot j j and akk = col_dot k k and ajk = col_dot j k in
        if abs_float ajk > eps *. sqrt (ajj *. akk) && ajk <> 0.0 then begin
          converged := false;
          (* Jacobi rotation zeroing the (j,k) inner product. *)
          let tau = (akk -. ajj) /. (2.0 *. ajk) in
          let t =
            let sign = if tau >= 0.0 then 1.0 else -1.0 in
            sign /. (abs_float tau +. sqrt (1.0 +. (tau *. tau)))
          in
          let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
          let s = c *. t in
          rotate c s j k
        end
      done
    done
  done;
  Obs.Metrics.incr c_decompositions;
  Obs.Metrics.incr ~by:!sweeps c_sweeps;
  let sigma = Array.init n (fun j -> sqrt (max 0.0 (col_dot j j))) in
  (* Sort singular values descending, permuting W's and V's columns. *)
  let order = Array.init n (fun j -> j) in
  Array.sort (fun a b -> compare sigma.(b) sigma.(a)) order;
  let sigma_sorted = Array.map (fun j -> sigma.(j)) order in
  let u = Matrix.make m n 0.0 in
  let v_sorted = Matrix.make n n 0.0 in
  Array.iteri
    (fun dst src ->
      let s = sigma.(src) in
      for i = 0 to m - 1 do
        Matrix.set u i dst
          (if s > 0.0 then Matrix.get w i src /. s else 0.0)
      done;
      for i = 0 to n - 1 do
        Matrix.set v_sorted i dst (Matrix.get v i src)
      done)
    order;
  { u; sigma = sigma_sorted; v = v_sorted }

let reconstruct t =
  let n = Array.length t.sigma in
  let scaled =
    Matrix.init (Matrix.rows t.u) n (fun i j ->
        Matrix.get t.u i j *. t.sigma.(j))
  in
  Dense.mul scaled (Dense.transpose t.v)

let rank ?(tol = 1e-8) t =
  let top = Array.fold_left max 0.0 t.sigma in
  if top = 0.0 then 0
  else
    Array.fold_left
      (fun acc s -> if s > tol *. top then acc + 1 else acc)
      0 t.sigma

let nullspace_basis ?tol t =
  let r = rank ?tol t in
  let n = Array.length t.sigma in
  Matrix.init n (n - r) (fun i j -> Matrix.get t.v i (r + j))

let condition t =
  let top = Array.fold_left max 0.0 t.sigma in
  let bottom =
    Array.fold_left
      (fun acc s -> if s > 0.0 then min acc s else acc)
      infinity t.sigma
  in
  if top = 0.0 then 0.0
  else if Array.exists (fun s -> s = 0.0) t.sigma then infinity
  else top /. bottom
