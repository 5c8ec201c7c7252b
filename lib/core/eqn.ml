module Bitset = Tomo_util.Bitset

(* The registry keys its variables by (correlation set, mask) in the
   table's format, by open addressing over flat arrays: a slot holds a
   variable or [-1], and the key is read back from the variable's own
   entries, so a lookup hashes and compares ints only.  The first word
   of a key is hashed and compared before the others.  [finish] drops
   the table: a finished registry's readers ([find], [find_mask],
   [subset_of_var], [mask_of_var], [n_vars]) read the slots, the
   per-variable arrays and the table's three position arrays only. *)
type registry = {
  mutable table : Signatures.t option;  (* [None] once finished *)
  link_pos : int array;
  pos_word : int array;
  pos_bit : int array;
  w : int;  (* words per mask *)
  mutable slots : int array;  (* power-of-two size, at most half full *)
  mutable corr : int array;  (* per variable *)
  mutable masks : int array;  (* per variable [v]: its words at [v * w] *)
  mutable subsets : Subsets.t option array;  (* per variable *)
  mutable count : int;
}

(* Sized for twice the distinct signatures, which is the number of
   single-path variables: most selections never grow it. *)
let registry (table : Signatures.t) =
  let w = table.Signatures.words and sig_start = table.Signatures.sig_start in
  let n = max 64 (2 * sig_start.(Array.length sig_start - 1)) in
  let slots = ref 256 in
  while !slots < 2 * n do
    slots := 2 * !slots
  done;
  {
    table = Some table;
    link_pos = table.Signatures.link_pos;
    pos_word = table.Signatures.pos_word;
    pos_bit = table.Signatures.pos_bit;
    w;
    slots = Array.make !slots (-1);
    corr = Array.make n 0;
    masks = Array.make (n * w) 0;
    subsets = Array.make n None;
    count = 0;
  }

(* The table of a registry still open to new variables. *)
let table_of reg fn =
  match reg.table with
  | Some t -> t
  | None -> invalid_arg (fn ^ ": the registry is finished")

let finish reg = reg.table <- None

let n_vars reg = reg.count

(* Words [j ..] of the mask at [i] of [a], mixed into [h]. *)
let rec mix h a i w j =
  if j >= w then h else mix ((h * 0xBF58476D1CE4E5B) lxor a.(i + j)) a i w (j + 1)

(* The slot of the key (set [c], mask at [i] of [a], first word [m0]). *)
let slot_of slots c m0 a i w =
  let h = m0 lxor (c * 0x9E3779B97F4A7C1) in
  let h = (if w = 1 then h else mix h a i w 1) * 0xBF58476D1CE4E5B in
  (h lxor (h lsr 29)) land (Array.length slots - 1)

let rec probe reg c m0 a i s =
  let v = Array.unsafe_get reg.slots s in
  if
    v < 0
    || Array.unsafe_get reg.corr v = c
       && Array.unsafe_get reg.masks (v * reg.w) = m0
       && (reg.w = 1 || Signatures.equal reg.masks (v * reg.w) a i reg.w)
  then v
  else probe reg c m0 a i ((s + 1) land (Array.length reg.slots - 1))

let find_mask reg ~corr a i =
  let m0 = a.(i) in
  probe reg corr m0 a i (slot_of reg.slots corr m0 a i reg.w)

let insert reg v =
  let i = v * reg.w in
  let s = ref (slot_of reg.slots reg.corr.(v) reg.masks.(i) reg.masks i reg.w) in
  while reg.slots.(!s) >= 0 do
    s := (!s + 1) land (Array.length reg.slots - 1)
  done;
  reg.slots.(!s) <- v

(* Record a new variable, growing the flat arrays by doubling. *)
let add_mask reg ~corr a i =
  let table = table_of reg "Eqn.add_mask" in
  match find_mask reg ~corr a i with
  | -1 ->
      let v = reg.count and w = reg.w in
      let s = Subsets.of_mask table ~corr a i in
      if v >= Array.length reg.corr then begin
        let more = max 64 v in
        reg.masks <- Array.append reg.masks (Array.make (more * w) 0);
        reg.corr <- Array.append reg.corr (Array.make more 0);
        reg.subsets <- Array.append reg.subsets (Array.make more None)
      end;
      reg.corr.(v) <- corr;
      for j = 0 to w - 1 do
        reg.masks.((v * w) + j) <- a.(i + j)
      done;
      reg.subsets.(v) <- Some s;
      reg.count <- v + 1;
      if 2 * (v + 1) > Array.length reg.slots then begin
        reg.slots <- Array.make (2 * Array.length reg.slots) (-1);
        for u = 0 to v - 1 do
          insert reg u
        done
      end;
      insert reg v;
      v
  | v -> v

(* A subset's mask, or [None] if a link is not effective. *)
let mask_of_subset reg (s : Subsets.t) =
  let pos = reg.link_pos in
  if Array.exists (fun e -> pos.(e) < 0) s.Subsets.links then None
  else begin
    let a = Array.make reg.w 0 in
    Array.iter
      (fun e ->
        let j = reg.pos_word.(pos.(e)) in
        a.(j) <- a.(j) lor reg.pos_bit.(pos.(e)))
      s.Subsets.links;
    Some a
  end

let find reg s =
  match mask_of_subset reg s with
  | None -> None
  | Some a -> (
      match find_mask reg ~corr:s.Subsets.corr a 0 with
      | -1 -> None
      | v -> Some v)

let add reg s =
  ignore (table_of reg "Eqn.add");
  match mask_of_subset reg s with
  | None -> invalid_arg "Eqn.add: a link outside the effective set"
  | Some a -> add_mask reg ~corr:s.Subsets.corr a 0

let subset_of_var reg v =
  if v < 0 || v >= reg.count then
    invalid_arg "Eqn.subset_of_var: unknown variable";
  Option.get reg.subsets.(v)

let mask_of_var reg v =
  if v < 0 || v >= reg.count then
    invalid_arg "Eqn.mask_of_var: unknown variable";
  Array.sub reg.masks (v * reg.w) reg.w

let pool reg v =
  let table = table_of reg "Eqn.pool" in
  if v < 0 || v >= reg.count then invalid_arg "Eqn.pool: unknown variable";
  Signatures.pool table ~corr:reg.corr.(v) reg.masks (v * reg.w)

(* A path's pairs on one set are adjacent: gather them into one mask. *)
let register_single_path_masks reg =
  let t = table_of reg "Eqn.register_single_path_masks" and w = reg.w in
  let buf = Array.make w 0 in
  for p = 0 to t.Signatures.model.Model.n_paths - 1 do
    let k = ref t.Signatures.path_start.(p)
    and hi = t.Signatures.path_start.(p + 1) in
    while !k < hi do
      let c = t.Signatures.pair_set.(!k) in
      for j = 0 to w - 1 do
        buf.(j) <- 0
      done;
      while !k < hi && t.Signatures.pair_set.(!k) = c do
        buf.(t.Signatures.pair_slot.(!k) - (c * w)) <- t.Signatures.pair_mask.(!k);
        incr k
      done;
      ignore (add_mask reg ~corr:c buf 0)
    done
  done

type row = { paths : int array; vars : int array }

(* A resolver builds rows from the table.  Algorithm 1 materializes
   thousands of candidate rows per selection, so a candidate ORs its
   paths' pairs into per-set masks (one [lor] per pair into the set's
   slot) and resolves each mask through the registry, from reused
   buffers. *)
type resolver = {
  rz_reg : registry;
  rz_table : Signatures.t;
  rz_stamp : int array;  (* per correlation set: generation *)
  rz_mask : int array;  (* per set [c]: the candidate's mask at [c * w] *)
  rz_order : int array;  (* the candidate's sets in first-seen order *)
  rz_vars : int array array;
      (* per row length: the buffer [row_vars] returns, made on first use *)
  mutable rz_gen : int;
}

let resolver reg =
  let table = table_of reg "Eqn.resolver" in
  let n_corr = Model.n_corr_sets table.Signatures.model in
  {
    rz_reg = reg;
    rz_table = table;
    rz_stamp = Array.make n_corr 0;
    rz_mask = Array.make (n_corr * reg.w) 0;
    rz_order = Array.make n_corr 0;
    rz_vars = Array.make (n_corr + 1) [||];
    rz_gen = 0;
  }

(* OR each path's pairs into the candidate's per-set masks, in
   first-seen order of the sets; the number of sets.  The masks are
   all zero between candidates ([clear]), so a pair ORs into its slot
   whether or not its set is new. *)
let gather rz paths =
  let gen = rz.rz_gen + 1 in
  rz.rz_gen <- gen;
  let stamp = rz.rz_stamp and mask = rz.rz_mask in
  let t = rz.rz_table in
  let pair_set = t.Signatures.pair_set
  and pair_slot = t.Signatures.pair_slot
  and pair_mask = t.Signatures.pair_mask
  and path_start = t.Signatures.path_start in
  let n_groups = ref 0 in
  for i = 0 to Array.length paths - 1 do
    let p = paths.(i) in
    for k = path_start.(p) to path_start.(p + 1) - 1 do
      let c = Array.unsafe_get pair_set k
      and s = Array.unsafe_get pair_slot k
      and m = Array.unsafe_get pair_mask k in
      if Array.unsafe_get stamp c <> gen then begin
        Array.unsafe_set stamp c gen;
        rz.rz_order.(!n_groups) <- c;
        incr n_groups
      end;
      Array.unsafe_set mask s (Array.unsafe_get mask s lor m)
    done
  done;
  !n_groups

(* Zero the candidate's per-set masks again. *)
let clear rz n_groups =
  let w = rz.rz_reg.w in
  for g = 0 to n_groups - 1 do
    let c = rz.rz_order.(g) in
    for j = c * w to (c * w) + w - 1 do
      Array.unsafe_set rz.rz_mask j 0
    done
  done

let row_vars rz ~paths =
  let n_groups = gather rz paths in
  if n_groups = 0 then [||]
  else begin
    let vars =
      match rz.rz_vars.(n_groups) with
      | [||] ->
          let b = Array.make n_groups 0 in
          rz.rz_vars.(n_groups) <- b;
          b
      | b -> b
    in
    let reg = rz.rz_reg in
    let ok = ref true in
    let g = ref 0 in
    while !ok && !g < n_groups do
      let c = rz.rz_order.(!g) in
      (match find_mask reg ~corr:c rz.rz_mask (c * reg.w) with
      | -1 -> ok := false
      | v -> vars.(!g) <- v);
      incr g
    done;
    clear rz n_groups;
    if not !ok then [||]
    else begin
      (* Insertion sort: a row touches a handful of subsets. *)
      for i = 1 to n_groups - 1 do
        let x = vars.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && vars.(!j) > x do
          vars.(!j + 1) <- vars.(!j);
          decr j
        done;
        vars.(!j + 1) <- x
      done;
      vars
    end
  end

let row_fast rz ~paths =
  match row_vars rz ~paths with
  | [||] -> None
  | vars -> Some { paths; vars = Array.copy vars }

(* Set [c]'s smallest link in the mask at [i]: the lowest set bit of
   its first non-zero word. *)
let first_link (t : Signatures.t) c mask i =
  let j = ref 0 in
  while mask.(i + !j) = 0 do
    incr j
  done;
  let m = mask.(i + !j) in
  t.Signatures.eff_links.(t.Signatures.eff_start.(c)
                          + (!j * Sys.int_size)
                          + Bitset.popcount ((m land -m) - 1))

let row_grow rz ~paths =
  ignore (table_of rz.rz_reg "Eqn.row_grow");
  let n_groups = gather rz paths in
  if n_groups = 0 then None
  else begin
    let reg = rz.rz_reg and order = rz.rz_order and mask = rz.rz_mask in
    let key c = first_link rz.rz_table c mask (c * reg.w) in
    (* Insertion sort of the sets by their smallest link. *)
    for i = 1 to n_groups - 1 do
      let c = order.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && key order.(!j) > key c do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- c
    done;
    let vars =
      Array.init n_groups (fun g ->
          add_mask reg ~corr:order.(g) mask (order.(g) * reg.w))
    in
    clear rz n_groups;
    Array.sort compare vars;
    Some { paths; vars }
  end
