module Bitset = Tomo_util.Bitset

let interval_statuses (result : Run.result) ~interval =
  if interval < 0 || interval >= result.Run.t_intervals then
    invalid_arg "Trace_io.interval_statuses: interval out of range";
  let n_paths = Array.length result.Run.path_good in
  let good = Bitset.create n_paths in
  Array.iteri
    (fun p row -> if Bitset.get row interval then Bitset.set good p)
    result.Run.path_good;
  good

let write ppf (result : Run.result) =
  let n_paths = Array.length result.Run.path_good in
  Format.fprintf ppf "tomo-trace v1@.";
  Format.fprintf ppf "paths %d@." n_paths;
  for t = 0 to result.Run.t_intervals - 1 do
    let good = interval_statuses result ~interval:t in
    let buf = Bytes.make n_paths '0' in
    Bitset.iter (fun p -> Bytes.set buf p '1') good;
    Format.fprintf ppf "tick %d %s@." t (Bytes.to_string buf)
  done

let to_string result =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  write ppf result;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let save path result = Tomo_obs.Sink.write_atomic path (to_string result)
