module Bitset = Tomo_util.Bitset

type t = {
  capacity : int;
  n_paths : int;
  columns : Bitset.t array;
      (* ring slot -> that interval's good paths; an unfilled slot holds
         an empty column, matching the all-congested observations *)
  obs : Tomo.Observations.t;  (* row view over the same slots *)
  changed : Bitset.t;  (* push scratch: stored column ⊕ fresh column *)
  always : Bitset.t;  (* paths good in every filled slot *)
  mutable ticks : int;
}

let capacity t = t.capacity
let n_paths t = t.n_paths
let ticks t = t.ticks
let occupancy t = min t.ticks t.capacity
let is_full t = t.ticks >= t.capacity
let observations t = t.obs

(* Recompute the always-good set from the good counts, for a window
   built from scratch. *)
let rescan_always t =
  let full = occupancy t in
  for p = 0 to t.n_paths - 1 do
    Bitset.assign t.always p
      (Tomo.Observations.good_count t.obs ~path:p = full)
  done

let max_capacity = 1 lsl 16

let create ~capacity ~n_paths =
  if capacity <= 0 then invalid_arg "Window.create: no capacity";
  if capacity > max_capacity then
    invalid_arg "Window.create: capacity above Window.max_capacity";
  if n_paths <= 0 then invalid_arg "Window.create: no paths";
  let t =
    {
      capacity;
      n_paths;
      columns = Array.init capacity (fun _ -> Bitset.create n_paths);
      obs = Tomo.Observations.create ~t_intervals:capacity ~n_paths;
      changed = Bitset.create n_paths;
      always = Bitset.create n_paths;
      ticks = 0;
    }
  in
  rescan_always t;
  t

(* The slot the next batch lands in; once the ring is full this is also
   the slot holding the oldest interval. *)
let cursor t = t.ticks mod t.capacity

(* Only the paths whose bit differs between the slot's stored column and
   the fresh one change their count.  Once the ring is full the
   occupancy stays put, so those are also the only paths that can enter
   or leave the always-good set.  During warm-up the slot was empty and
   the occupancy grows by one, so a path stays always good iff the fresh
   column has it. *)
let push t good =
  if Bitset.length good <> t.n_paths then
    invalid_arg "Window.push: batch has wrong path capacity";
  let slot = cursor t in
  let stored = t.columns.(slot) in
  let was_full = is_full t in
  Bitset.copy_into ~into:t.changed stored;
  Bitset.xor_into ~into:t.changed good;
  Tomo.Observations.flip_interval_statuses t.obs ~interval:slot
    ~changed:t.changed;
  t.columns.(slot) <- good;
  t.ticks <- t.ticks + 1;
  if was_full then begin
    Bitset.iter
      (fun p ->
        Bitset.assign t.always p
          (Tomo.Observations.good_count t.obs ~path:p = t.capacity))
      t.changed;
    Some stored
  end
  else begin
    Bitset.inter_into ~into:t.always good;
    None
  end

let column t ~slot =
  if slot < 0 || slot >= occupancy t then
    invalid_arg "Window.column: slot out of range";
  t.columns.(slot)

let iter_columns f t =
  for slot = 0 to occupancy t - 1 do
    f t.columns.(slot)
  done

let always_good_paths t = Bitset.copy t.always

let restore ~capacity ~n_paths ~ticks ~columns =
  if ticks < 0 then invalid_arg "Window.restore: negative tick count";
  let t = create ~capacity ~n_paths in
  let filled = min ticks capacity in
  if Array.length columns <> filled then
    invalid_arg
      (Printf.sprintf "Window.restore: expected %d columns, got %d" filled
         (Array.length columns));
  Array.iteri
    (fun slot good ->
      if Bitset.length good <> n_paths then
        invalid_arg "Window.restore: column has wrong path capacity";
      Tomo.Observations.set_interval_statuses t.obs ~interval:slot ~good;
      t.columns.(slot) <- good)
    columns;
  t.ticks <- ticks;
  rescan_always t;
  t
