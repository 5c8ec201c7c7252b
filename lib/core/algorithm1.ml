module Bitset = Tomo_util.Bitset
module Combin = Tomo_util.Combin
module Nullspace = Tomo_linalg.Nullspace
module Sparse_chol = Tomo_linalg.Sparse_chol
module Sparse_gauss = Tomo_linalg.Sparse_gauss

let src = Logs.Src.create "tomo.algorithm1" ~doc:"Path-set selection"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Tomo_obs

let c_selections = Obs.Metrics.counter "alg1_selections"
let c_registries = Obs.Metrics.counter "alg1_registries"
let c_equations = Obs.Metrics.counter "equations_formed"
let c_rows_rejected = Obs.Metrics.counter "equations_rejected_dependent"
let c_candidates = Obs.Metrics.counter "alg1_candidate_rows_materialized"
let c_skips = Obs.Metrics.counter "alg1_interchangeable_skips"
let g_unknowns = Obs.Metrics.gauge "alg1_unknowns"
let g_nullity = Obs.Metrics.gauge "alg1_final_nullity"

type config = { max_subset_size : int }

let default_config = { max_subset_size = 3 }

(* The truncation limits of §4 that keep the enumeration practical, and
   the rank tolerance. *)
let limit_per_set = 500
let max_pathset_size = 8
let max_candidates = 300
let tol = 1e-8

type selection = {
  model : Model.t;
  effective : Bitset.t;
  registry : Eqn.registry;
  rows : Eqn.row array;
  seeded : Bitset.t;
  nullity : int;
  identifiable : bool array;
  factor : Sparse_chol.t option;
  readout : Readout.t;
}

(* Ê: every subset a single-path equation induces, plus the enumerated
   target subsets up to the configured size, both read from the
   signature table of [effective]. *)
let registry_of config model effective =
  Obs.Metrics.incr c_registries;
  let table =
    Obs.Trace.with_span "algorithm1.signatures" (fun () ->
        Signatures.build model ~effective)
  in
  let registry =
    Obs.Trace.with_span "algorithm1.registry" (fun () ->
        let registry = Eqn.registry table in
        Eqn.register_single_path_masks registry;
        Subsets.enumerate table ~max_size:config.max_subset_size
          ~limit_per_set (fun corr mask ->
            ignore (Eqn.add_mask registry ~corr mask 0));
        registry)
  in
  (table, registry)

(* The selected rows are independent by construction, so their A·Aᵀ is
   positive definite: factor it once here and every solve until the next
   selection is two triangular solves.  The readout plan is decided from
   the identifiable flags here too, so reading a marginal is per-solve
   arithmetic only.  After the readout no one reads the signature
   table again, so the registry drops it. *)
let finish model effective registry rows ~seeded ~identifiable ~nullity =
  let selection =
    {
      model;
      effective;
      registry;
      rows;
      seeded;
      nullity;
      identifiable;
      factor =
        Some
          (Sparse_chol.factor ~cols:(Eqn.n_vars registry)
             (Array.map (fun r -> r.Eqn.vars) rows));
      readout =
        Obs.Trace.with_span "algorithm1.readout" (fun () ->
            Readout.build model ~effective registry ~identifiable);
    }
  in
  Eqn.finish registry;
  selection

(* SortByHammingWeight, as a monomorphic copy of Stdlib's [Array.sort]
   (a ternary heap sort).  Each key packs a weight above [shift] bits
   and a variable below, and keys are compared by weight only,
   decreasing: every comparison is the one [Array.sort] makes on
   (variable, weight) pairs under [fun (_, a) (_, b) -> compare b a],
   on the same elements, so the permutation is the same, ties included.
   [maxson] returns -1 where Stdlib raises [Bottom]. *)
let maxson a shift l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if Array.unsafe_get a i31 lsr shift > Array.unsafe_get a (i31 + 1) lsr shift
      then i31 + 1
      else i31
    in
    if Array.unsafe_get a x lsr shift > Array.unsafe_get a (i31 + 2) lsr shift
    then i31 + 2
    else x
  end
  else if
    i31 + 1 < l
    && Array.unsafe_get a i31 lsr shift > Array.unsafe_get a (i31 + 1) lsr shift
  then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickledown a shift l i e =
  let j = maxson a shift l i in
  if j >= 0 && Array.unsafe_get a j lsr shift < e lsr shift then begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    trickledown a shift l j e
  end
  else Array.unsafe_set a i e

let rec bubble a shift l i =
  let j = maxson a shift l i in
  if j < 0 then i
  else begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    bubble a shift l j
  end

let rec trickleup a shift i e =
  let father = (i - 1) / 3 in
  if Array.unsafe_get a father lsr shift > e lsr shift then begin
    Array.unsafe_set a i (Array.unsafe_get a father);
    if father > 0 then trickleup a shift father e else Array.unsafe_set a 0 e
  end
  else Array.unsafe_set a i e

let sort_grow_order ~shift a =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickledown a shift l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup a shift (bubble a shift i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let select ?(config = default_config) model obs =
  Obs.Trace.with_span "algorithm1.select" @@ fun () ->
  Obs.Metrics.incr c_selections;
  let effective = Subsets.effective_links model obs in
  let table, registry = registry_of config model effective in
  let n = Eqn.n_vars registry in
  if n = 0 then
    finish model effective registry [||] ~seeded:(Bitset.create 0)
      ~identifiable:[||] ~nullity:0
  else begin
    Obs.Metrics.set_gauge g_unknowns (float_of_int n);
    if Obs.Trace.enabled () then
      Obs.Trace.add_attr "unknowns" (string_of_int n);
    Log.debug (fun m -> m "starting selection over %d unknowns" n);
    (* Lines 1-5: seed with Paths(E) \ Paths(Ē) for every subset E.  The
       pool is kept for the grow phase, which enumerates its subsets —
       previously it was recomputed from the model per variable.

       The seed system is not grown row by row: all seed rows are
       collected first, the greedy in-order independent subset is found
       by one forward elimination ({!Sparse_gauss.select_independent} —
       the same accept/reject decisions an incremental rank test makes),
       and the survivors are eliminated once into the tracker's starting
       basis ({!Nullspace.of_incidence}).  The per-row O(nvars · p)
       updates at maximal [p] — the most expensive phase of the old loop
       — collapse into one batched elimination. *)
    let seed_pools = Array.make n [||] in
    let rows = ref [] in
    let seeded = Bitset.create n in
    (* The registry is frozen from here on: rows only look up. *)
    let resolver = Eqn.resolver registry in
    let tracker =
      Obs.Trace.with_span "algorithm1.seed" (fun () ->
          let seed_rows = ref [] and seed_vars = ref [] in
          for v = 0 to n - 1 do
            let paths = Eqn.pool registry v in
            if Array.length paths > 0 then begin
              seed_pools.(v) <- paths;
              match Eqn.row_fast resolver ~paths with
              | Some row ->
                  seed_rows := row :: !seed_rows;
                  seed_vars := v :: !seed_vars
              | None -> ()
            end
          done;
          let seed_rows = Array.of_list (List.rev !seed_rows) in
          let seed_vars = Array.of_list (List.rev !seed_vars) in
          let keep =
            Obs.Trace.with_span "algorithm1.independent" (fun () ->
                Sparse_gauss.select_independent ~tol ~cols:n
                  (Array.map (fun r -> r.Eqn.vars) seed_rows))
          in
          let kept = ref [] and n_kept = ref 0 in
          Array.iteri
            (fun i row ->
              if keep.(i) then begin
                kept := row :: !kept;
                incr n_kept;
                Bitset.set seeded seed_vars.(i);
                Obs.Metrics.incr c_equations
              end
              else Obs.Metrics.incr c_rows_rejected)
            seed_rows;
          rows := !kept;
          let kept_vars =
            let a = Array.make !n_kept [||] in
            let i = ref (!n_kept - 1) in
            List.iter
              (fun r ->
                a.(!i) <- r.Eqn.vars;
                decr i)
              !kept;
            a
          in
          Obs.Trace.with_span "algorithm1.basis" (fun () ->
              Nullspace.of_incidence ~tol ~rows:!n_kept ~cols:n kept_vars))
    in
    (* Lines 8-22: grow the system guided by the null space.  Each
       variable's candidates — the subsets of its pool in increasing size
       that resolve to a row — are streamed from a cursor that resumes
       where the variable's last visit stopped: a row found dependent
       stays dependent (the row space only grows), so no candidate is
       tested twice.  Candidates are tested from reused buffers; only an
       accepted row is allocated.

       A candidate holding a path that is not the first of its
       interchangeable class in the pool ([rep]: same pairs, so the same
       contribution to every row) is skipped unresolved.  Mapping each
       path to its class's first member gives a candidate with the same
       row that is smaller, or lexicographically earlier, so this cursor
       already tested it: its row is unresolvable, dependent, or
       accepted, and either way this one is no use now (DESIGN,
       "Signature table").  The skip still counts as a visit. *)
    let cursors = Array.make n None in
    let path_bufs =
      Array.init (max_pathset_size + 1) (fun k -> Array.make k 0)
    in
    let cursor_of v =
      match cursors.(v) with
      | Some c -> c
      | None ->
          let c =
            Combin.cursor ~n:(Array.length seed_pools.(v))
              ~max_size:max_pathset_size ~limit:max_candidates
          in
          cursors.(v) <- Some c;
          c
    in
    let rep = table.Signatures.rep in
    (* Fill [paths] with the candidate; [false] at its first path that
       is not its class's representative. *)
    let rec fill pool cur paths k i =
      i >= k
      ||
      let p = pool.(Combin.index cur i) in
      rep.(p) = p
      && begin
           paths.(i) <- p;
           fill pool cur paths k (i + 1)
         end
    in
    (* Test [v]'s candidates until one is accepted or none is left. *)
    let rec grow_from v cur =
      let k = Combin.next cur in
      k > 0
      &&
      let paths = path_bufs.(k) in
      if not (fill seed_pools.(v) cur paths k 0) then begin
        Obs.Metrics.incr c_skips;
        grow_from v cur
      end
      else
        match Eqn.row_vars resolver ~paths with
        | [||] -> grow_from v cur
        | vars ->
            Obs.Metrics.incr c_candidates;
            if Nullspace.add_incidence tracker vars then begin
              let row =
                { Eqn.paths = Array.copy paths; vars = Array.copy vars }
              in
              rows := row :: !rows;
              Obs.Metrics.incr c_equations;
              true
            end
            else begin
              Obs.Metrics.incr c_rows_rejected;
              grow_from v cur
            end
    in
    (* SortByHammingWeight keys: the weight above [shift] bits, the
       variable below. *)
    let shift =
      let s = ref 0 in
      while 1 lsl !s < n do
        incr s
      done;
      !s
    in
    let var_mask = (1 lsl shift) - 1 in
    let order = Array.make n 0 in
    let continue_ = ref true in
    Obs.Trace.with_span "algorithm1.grow" (fun () ->
    while !continue_ && Nullspace.dim tracker > 0 do
      (* Try subsets whose N-row has the most non-zero entries first.
         The weights are maintained by the tracker during elimination,
         so reading them is O(n). *)
      for v = 0 to n - 1 do
        order.(v) <- (Nullspace.row_weight tracker v lsl shift) lor v
      done;
      sort_grow_order ~shift order;
      let progress = ref false in
      let i = ref 0 in
      while (not !progress) && !i < n do
        let key = order.(!i) in
        incr i;
        if key lsr shift > 0 then begin
          let v = key land var_mask in
          progress := grow_from v (cursor_of v)
        end
      done;
      if not !progress then continue_ := false
    done);
    Obs.Metrics.set_gauge g_nullity (float_of_int (Nullspace.dim tracker));
    let rows = Array.of_list (List.rev !rows) in
    Log.debug (fun m ->
        m
          "selection done: %d effective links, %d unknowns, %d equations, \
           nullity %d"
          (Bitset.count effective) n (Array.length rows)
          (Nullspace.dim tracker));
    (* The identifiable flags are read off the final null space. *)
    finish model effective registry rows ~seeded
      ~identifiable:(Nullspace.determined tracker)
      ~nullity:(Nullspace.dim tracker)
  end

(* A selection's answer, packed into one string: three LEB128 numbers
   (the variable count, the nullity and the number of grow-row paths),
   then a stream of bits, each byte's lowest bit first:
   - the effective links, one bit per link of the model;
   - the identifiable flags, then the seeded flags, one bit per
     variable;
   - the grow rows' paths, flat and in order: per path, a bit set on
     each row's first path, then the path in [path_bits model] bits.
   The seed rows are the seed pools of the variables in [seeded], in
   variable order, so only the grow rows keep their paths. *)
type decision = string

let decision_bytes = String.length

(* The fewest bits that hold every path of [model]. *)
let path_bits model =
  let rec go k = if 1 lsl k >= model.Model.n_paths then k else go (k + 1) in
  max 1 (go 0)

let rec add_leb128 b x =
  if x < 0x80 then Buffer.add_char b (Char.chr x)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (x land 0x7f)));
    add_leb128 b (x lsr 7)
  end

let decision (sel : selection) =
  let n_vars = Array.length sel.identifiable in
  let n_seed = Bitset.count sel.seeded in
  let grow = Array.sub sel.rows n_seed (Array.length sel.rows - n_seed) in
  let n_grow_paths =
    Array.fold_left (fun n r -> n + Array.length r.Eqn.paths) 0 grow
  in
  let width = path_bits sel.model in
  let b = Buffer.create 64 in
  List.iter (add_leb128 b) [ n_vars; sel.nullity; n_grow_paths ];
  let n_bits =
    sel.model.Model.n_links + (2 * n_vars) + (n_grow_paths * (1 + width))
  in
  let bits = Bytes.make ((n_bits + 7) / 8) '\000' and pos = ref 0 in
  let put x =
    if x then
      Bytes.set_uint8 bits (!pos lsr 3)
        (Bytes.get_uint8 bits (!pos lsr 3) lor (1 lsl (!pos land 7)));
    incr pos
  in
  for e = 0 to sel.model.Model.n_links - 1 do
    put (Bitset.get sel.effective e)
  done;
  Array.iter put sel.identifiable;
  for v = 0 to n_vars - 1 do
    put (Bitset.get sel.seeded v)
  done;
  Array.iter
    (fun r ->
      Array.iteri
        (fun i p ->
          put (i = 0);
          for k = 0 to width - 1 do
            put ((p lsr k) land 1 = 1)
          done)
        r.Eqn.paths)
    grow;
  Buffer.add_bytes b bits;
  Buffer.contents b

(* The registry is a function of the effective links, a seed row's
   paths a function of its variable over that registry ([Eqn.pool], as
   [select] took them), and a row's variables a function of its paths:
   resolving the rows through the same resolver [select] used gives
   them the variables [select] gave them, and [finish] does the rest
   as it does for [select]. *)
let of_decision model d =
  Obs.Trace.with_span "algorithm1.rebuild" @@ fun () ->
  let byte = ref 0 in
  let rec leb128 shift acc =
    let c = Char.code d.[!byte] in
    incr byte;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else leb128 (shift + 7) acc
  in
  let n_vars = leb128 0 0 in
  let nullity = leb128 0 0 in
  let n_grow_paths = leb128 0 0 in
  let pos = ref (8 * !byte) in
  let get () =
    let x = Char.code d.[!pos lsr 3] land (1 lsl (!pos land 7)) <> 0 in
    incr pos;
    x
  in
  let effective = Bitset.create model.Model.n_links in
  for e = 0 to model.Model.n_links - 1 do
    if get () then Bitset.set effective e
  done;
  let _, registry = registry_of default_config model effective in
  if Eqn.n_vars registry <> n_vars then
    invalid_arg "Algorithm1.of_decision: the registry has changed";
  let identifiable = Array.init n_vars (fun _ -> get ()) in
  let seeded = Bitset.create n_vars in
  for v = 0 to n_vars - 1 do
    if get () then Bitset.set seeded v
  done;
  let resolver = Eqn.resolver registry in
  let row paths =
    match Eqn.row_vars resolver ~paths with
    | [||] -> invalid_arg "Algorithm1.of_decision: a row does not resolve"
    | vars -> { Eqn.paths; vars = Array.copy vars }
  in
  let seed =
    List.map (fun v -> row (Eqn.pool registry v)) (Bitset.to_list seeded)
  in
  let width = path_bits model in
  let grow = ref [] and paths = ref [] in
  let close_row () =
    if !paths <> [] then grow := row (Array.of_list (List.rev !paths)) :: !grow;
    paths := []
  in
  for _ = 1 to n_grow_paths do
    if get () then close_row ();
    let p = ref 0 in
    for k = 0 to width - 1 do
      if get () then p := !p lor (1 lsl k)
    done;
    paths := !p :: !paths
  done;
  close_row ();
  finish model effective registry
    (Array.of_list (seed @ List.rev !grow))
    ~seeded ~identifiable ~nullity

let n_identifiable (sel : selection) =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sel.identifiable
