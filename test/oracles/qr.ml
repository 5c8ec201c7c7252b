type t = {
  qr : Matrix.t;
  betas : float array;
  perm : int array;
  rank : int;
}

let default_tol = 1e-10

(* Squared Euclidean norm of column [j], rows [from..m-1]. *)
let col_norm2 a ~from j =
  let acc = ref 0.0 in
  for i = from to Matrix.rows a - 1 do
    let x = Matrix.get a i j in
    acc := !acc +. (x *. x)
  done;
  !acc

let decompose ?(tol = default_tol) a0 =
  let a = Dense.copy a0 in
  let m = Matrix.rows a and n = Matrix.cols a in
  let kmax = min m n in
  let betas = Array.make kmax 0.0 in
  let perm = Array.init n (fun j -> j) in
  let initial_max =
    let mx = ref 0.0 in
    for j = 0 to n - 1 do
      mx := max !mx (sqrt (col_norm2 a ~from:0 j))
    done;
    max !mx 1e-300
  in
  let rank = ref 0 in
  (try
     for k = 0 to kmax - 1 do
       (* Column pivot: the remaining column with the largest trailing
          norm. Recomputed exactly; matrix sizes here are modest. *)
       let best = ref k and best_norm = ref (col_norm2 a ~from:k k) in
       for j = k + 1 to n - 1 do
         let nj = col_norm2 a ~from:k j in
         if nj > !best_norm then begin
           best := j;
           best_norm := nj
         end
       done;
       if sqrt !best_norm <= tol *. initial_max then raise Exit;
       if !best <> k then begin
         Dense.swap_cols a k !best;
         let tmp = perm.(k) in
         perm.(k) <- perm.(!best);
         perm.(!best) <- tmp
       end;
       (* Householder reflection annihilating column k below the
          diagonal: v = x + sign(x0)·||x||·e1, H = I - beta·v·vᵀ. *)
       let norm = sqrt !best_norm in
       let x0 = Matrix.get a k k in
       let alpha = if x0 >= 0.0 then -.norm else norm in
       let v0 = x0 -. alpha in
       let vnorm2 = !best_norm -. (x0 *. x0) +. (v0 *. v0) in
       if vnorm2 <= 0.0 then begin
         betas.(k) <- 0.0;
         Matrix.set a k k alpha
       end
       else begin
         let beta = 2.0 /. vnorm2 in
         betas.(k) <- beta;
         (* Apply H to the trailing columns.  The Householder vector is
            (v0, a(k+1..m-1, k)). *)
         for j = k + 1 to n - 1 do
           let dot = ref (v0 *. Matrix.get a k j) in
           for i = k + 1 to m - 1 do
             dot := !dot +. (Matrix.get a i k *. Matrix.get a i j)
           done;
           let s = beta *. !dot in
           Matrix.set a k j (Matrix.get a k j -. (s *. v0));
           for i = k + 1 to m - 1 do
             Matrix.set a i j
               (Matrix.get a i j -. (s *. Matrix.get a i k))
           done
         done;
         (* Store alpha on the diagonal and v (scaled so its head is v0)
            below it; v0 itself is kept in a side array via beta scaling.
            We normalize v so that its first component is 1, folding v0
            into beta, which lets us store only the below-diagonal part. *)
         for i = k + 1 to m - 1 do
           Matrix.set a i k (Matrix.get a i k /. v0)
         done;
         betas.(k) <- beta *. v0 *. v0;
         Matrix.set a k k alpha
       end;
       incr rank
     done
   with Exit -> ());
  { qr = a; betas; perm; rank = !rank }

(* Apply the k-th stored reflection to vector [y] (length m). *)
let apply_reflection t k y =
  let m = Matrix.rows t.qr in
  let beta = t.betas.(k) in
  if beta <> 0.0 then begin
    let dot = ref y.(k) in
    for i = k + 1 to m - 1 do
      dot := !dot +. (Matrix.get t.qr i k *. y.(i))
    done;
    let s = beta *. !dot in
    y.(k) <- y.(k) -. s;
    for i = k + 1 to m - 1 do
      y.(i) <- y.(i) -. (s *. Matrix.get t.qr i k)
    done
  end

let apply_qt t b =
  let m = Matrix.rows t.qr in
  if Array.length b <> m then invalid_arg "Qr.apply_qt: length mismatch";
  let y = Array.copy b in
  for k = 0 to t.rank - 1 do
    apply_reflection t k y
  done;
  y

let solve_r t y =
  let n = Matrix.cols t.qr in
  let x = Array.make n 0.0 in
  for i = t.rank - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to t.rank - 1 do
      acc := !acc -. (Matrix.get t.qr i j *. x.(j))
    done;
    x.(i) <- !acc /. Matrix.get t.qr i i
  done;
  let out = Array.make n 0.0 in
  for j = 0 to n - 1 do
    out.(t.perm.(j)) <- x.(j)
  done;
  out

let q t =
  let m = Matrix.rows t.qr in
  let out = Matrix.identity m in
  (* Q = H_0 · H_1 · ... applied to each basis vector. *)
  for c = 0 to m - 1 do
    let y = Dense.col out c in
    for k = t.rank - 1 downto 0 do
      apply_reflection t k y
    done;
    for i = 0 to m - 1 do
      Matrix.set out i c y.(i)
    done
  done;
  out

let r t =
  let m = Matrix.rows t.qr and n = Matrix.cols t.qr in
  Matrix.init m n (fun i j -> if j >= i then Matrix.get t.qr i j else 0.0)
