type kind = Submarine | Land_fiber

type t = {
  id : int;
  name : string;
  kind : kind;
  landings : int list;
  length_km : float;
  max_abs_lat : float;
}

let chain_length landings =
  Geo.Distance.path_length_km (List.map snd landings)

let make ~id ~name ~kind ~landings ?length_km () =
  if List.length landings < 2 then invalid_arg "Cable.make: fewer than 2 landings";
  let ids = List.map fst landings in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Cable.make: duplicate landing node";
  let gc = chain_length landings in
  let length_km =
    match length_km with
    | None -> gc
    | Some l ->
        if l <= 0.0 then invalid_arg "Cable.make: non-positive length";
        Float.max l gc
  in
  let max_abs_lat =
    List.fold_left (fun m (_, c) -> Float.max m (Geo.Coord.abs_lat c)) 0.0 landings
  in
  { id; name; kind; landings = ids; length_km; max_abs_lat }

let repeater_count c ~spacing_km =
  Repeater.count_for_length ~spacing_km ~length_km:c.length_km

let needs_repeaters c ~spacing_km = repeater_count c ~spacing_km > 0

let hop_count c = List.length c.landings - 1

let risk_tier c = Geo.Latband.tier_of_abs_lat c.max_abs_lat

let segment_lengths landings ~length_km =
  let coords = List.map snd landings in
  let rec hops = function
    | a :: (b :: _ as rest) -> Geo.Distance.haversine_km a b :: hops rest
    | [ _ ] | [] -> []
  in
  let hop_lengths = hops coords in
  let total_gc = List.fold_left ( +. ) 0.0 hop_lengths in
  if total_gc <= 0.0 then List.map (fun _ -> 0.0) hop_lengths
  else List.map (fun h -> h /. total_gc *. length_km) hop_lengths
