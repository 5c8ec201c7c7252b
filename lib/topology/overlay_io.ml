let write ppf (t : Overlay.t) =
  Format.fprintf ppf "tomo-overlay v1@.";
  Format.fprintf ppf "ases %d source %d@." t.Overlay.n_ases
    t.Overlay.source_as;
  Format.fprintf ppf "factors %d@." t.Overlay.n_factors;
  Array.iteri
    (fun id owner -> Format.fprintf ppf "factor %d %d@." id owner)
    t.Overlay.factor_owner;
  Format.fprintf ppf "links %d@." (Overlay.n_links t);
  Array.iter
    (fun (l : Overlay.link) ->
      Format.fprintf ppf "link %d %d %s" l.Overlay.id l.Overlay.owner_as
        (match l.Overlay.kind with
        | Overlay.Inter -> "inter"
        | Overlay.Intra -> "intra");
      Array.iter (fun f -> Format.fprintf ppf " %d" f) l.Overlay.factors;
      Format.fprintf ppf "@.")
    t.Overlay.links;
  Format.fprintf ppf "paths %d@." (Overlay.n_paths t);
  Array.iter
    (fun (p : Overlay.path) ->
      Format.fprintf ppf "path %d" p.Overlay.id;
      Array.iter (fun l -> Format.fprintf ppf " %d" l) p.Overlay.links;
      Format.fprintf ppf "@.")
    t.Overlay.paths

let to_string t =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  write ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Parsing: split into significant lines, dispatch on the first token. *)
let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let fail line fmt =
    Format.kasprintf (fun msg -> failwith (Printf.sprintf "%s: %s" line msg)) fmt
  in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let int_of l w =
    match int_of_string_opt w with
    | Some v -> v
    | None -> fail l "expected integer, got %S" w
  in
  match lines with
  | header :: rest when header = "tomo-overlay v1" -> (
      let n_ases = ref 0
      and source_as = ref 0
      and declared_factors = ref ("", 0)
      and factors = ref []
      and links = ref []
      and paths = ref []
      and declared_paths = ref None in
      List.iter
        (fun line ->
          match words line with
          | [ "ases"; n; "source"; s ] ->
              n_ases := int_of line n;
              source_as := int_of line s
          | [ "factors"; n ] -> declared_factors := (line, int_of line n)
          | [ "factor"; id; owner ] ->
              let id = int_of line id in
              if id < 0 || id >= snd !declared_factors then
                fail line "factor id out of range";
              factors := (id, int_of line owner) :: !factors
          | "link" :: id :: owner :: kind :: factors ->
              let kind =
                match kind with
                | "inter" -> Overlay.Inter
                | "intra" -> Overlay.Intra
                | k -> fail line "unknown link kind %S" k
              in
              links :=
                {
                  Overlay.id = int_of line id;
                  owner_as = int_of line owner;
                  kind;
                  factors =
                    Array.of_list (List.map (int_of line) factors);
                }
                :: !links
          | "path" :: id :: link_ids ->
              paths :=
                {
                  Overlay.id = int_of line id;
                  links = Array.of_list (List.map (int_of line) link_ids);
                }
                :: !paths
          | [ "paths"; n ] ->
              let n = int_of line n in
              (* A model needs a path to observe: reject the overlay here,
                 not later in [Model.make]. *)
              if n < 1 then fail line "an overlay needs at least one path";
              declared_paths := Some (line, n)
          | [ "links"; _ ] -> ()
          | _ -> fail line "unrecognized line")
        rest;
      (* The owner table is allocated only once the factor lines match
         the declared count, so a corrupt count cannot ask for an
         array of any size. *)
      let factor_owner =
        let line, n = !declared_factors in
        if n <> List.length !factors then
          fail line "declares %d factors, found %d" n (List.length !factors);
        let owner = Array.make n (-1) in
        List.iter (fun (id, o) -> owner.(id) <- o) (List.rev !factors);
        owner
      in
      (match !declared_paths with
      | Some (line, n) when n <> List.length !paths ->
          fail line "declares %d paths, found %d" n (List.length !paths)
      | Some _ -> ()
      | None -> failwith "overlay declares no paths");
      let sort_by_id arr id_of =
        let a = Array.of_list arr in
        Array.sort (fun x y -> compare (id_of x) (id_of y)) a;
        a
      in
      let overlay =
        {
          Overlay.n_ases = !n_ases;
          source_as = !source_as;
          links = sort_by_id !links (fun (l : Overlay.link) -> l.Overlay.id);
          paths = sort_by_id !paths (fun (p : Overlay.path) -> p.Overlay.id);
          n_factors = Array.length factor_owner;
          factor_owner;
        }
      in
      Overlay.validate overlay;
      overlay)
  | header :: _ -> failwith ("unknown overlay format: " ^ header)
  | [] -> failwith "empty overlay file"

let save path t = Tomo_obs.Sink.write_atomic path (to_string t)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
