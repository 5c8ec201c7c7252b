module Obs = Tomo_obs

let c_solves = Obs.Metrics.counter "cgls_solves"
let c_iterations = Obs.Metrics.counter "cgls_iterations"
let h_residual = Obs.Metrics.histogram "cgls_final_residual"

(* Per-domain scratch vectors, grown on demand and reused across solves,
   so the experiment harness, which solves once per probability
   computation, does not allocate the four CG work vectors every time.
   The buffers may be longer than the live prefix, so every loop below
   runs over explicit [m] / [n_vars] bounds.  Domain-local storage keeps
   parallel solves (tomo_par) from sharing a buffer. *)
type scratch = {
  mutable sr : float array; (* residual, length >= m *)
  mutable ss : float array; (* normal-equation residual, length >= n_vars *)
  mutable sp : float array; (* search direction, length >= n_vars *)
  mutable sq : float array; (* A·p, length >= m *)
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sr = [||]; ss = [||]; sp = [||]; sq = [||] })

let ensure a n = if Array.length a >= n then a else Array.make n 0.0

let solve_sparse ~a ~b ?max_iter ?(tol = 1e-12) () =
  let m = Sparse.rows a and n_vars = Sparse.cols a in
  if Array.length b <> m then
    invalid_arg "Cgls.solve_sparse: size mismatch";
  (* Freeze the system into flat CSR once per solve: the CG iteration
     sweeps A hundreds of times, and the packed arrays replace two
     pointer chases per row per sweep with contiguous streaming. *)
  let csr = Sparse.to_csr a in
  let rp = csr.Sparse.row_ptr
  and ci = csr.Sparse.col_idx
  and vs = csr.Sparse.values in
  let apply_a v out =
    for i = 0 to m - 1 do
      let acc = ref 0.0 in
      for k = Array.unsafe_get rp i to Array.unsafe_get rp (i + 1) - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get vs k
              *. Array.unsafe_get v (Array.unsafe_get ci k))
      done;
      Array.unsafe_set out i !acc
    done
  in
  let apply_at w out =
    Array.fill out 0 n_vars 0.0;
    for i = 0 to m - 1 do
      let wi = Array.unsafe_get w i in
      if wi <> 0.0 then
        for k = Array.unsafe_get rp i to Array.unsafe_get rp (i + 1) - 1 do
          let j = Array.unsafe_get ci k in
          Array.unsafe_set out j
            (Array.unsafe_get out j +. (wi *. Array.unsafe_get vs k))
        done
    done
  in
  let max_iter =
    match max_iter with Some n -> n | None -> (4 * n_vars) + 100
  in
  let x = Array.make n_vars 0.0 in
  if m = 0 || n_vars = 0 then x
  else Obs.Trace.with_span "cgls.solve" @@ fun () ->
  begin
    let ws = Domain.DLS.get scratch_key in
    ws.sr <- ensure ws.sr m;
    ws.ss <- ensure ws.ss n_vars;
    ws.sp <- ensure ws.sp n_vars;
    ws.sq <- ensure ws.sq m;
    let r = ws.sr and s = ws.ss and p = ws.sp and q = ws.sq in
    let dot a b n =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
      done;
      !acc
    in
    Array.blit b 0 r 0 m;
    apply_at r s;
    Array.blit s 0 p 0 n_vars;
    let gamma = ref (dot s s n_vars) in
    let target = tol *. sqrt !gamma in
    let iters = ref 0 in
    (try
       for _ = 1 to max_iter do
         if sqrt !gamma <= target || !gamma = 0.0 then raise Exit;
         incr iters;
         apply_a p q;
         let qq = dot q q m in
         if qq <= 0.0 then raise Exit;
         let alpha = !gamma /. qq in
         for j = 0 to n_vars - 1 do
           Array.unsafe_set x j
             (Array.unsafe_get x j +. (alpha *. Array.unsafe_get p j))
         done;
         for i = 0 to m - 1 do
           Array.unsafe_set r i
             (Array.unsafe_get r i -. (alpha *. Array.unsafe_get q i))
         done;
         apply_at r s;
         let gamma' = dot s s n_vars in
         let beta = gamma' /. !gamma in
         for j = 0 to n_vars - 1 do
           Array.unsafe_set p j
             (Array.unsafe_get s j +. (beta *. Array.unsafe_get p j))
         done;
         gamma := gamma'
       done
     with Exit -> ());
    Obs.Metrics.incr c_solves;
    Obs.Metrics.incr ~by:!iters c_iterations;
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.observe h_residual (sqrt (dot r r m));
      Obs.Trace.add_attr "iterations" (string_of_int !iters)
    end;
    x
  end
