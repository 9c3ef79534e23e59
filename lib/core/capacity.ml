let cable_capacity_tbps (c : Infra.Cable.t) =
  let pairs =
    if c.Infra.Cable.length_km < 2000.0 then 8.0
    else if c.Infra.Cable.length_km < 8000.0 then 6.0
    else 4.0
  in
  pairs *. 15.0

let network_capacity_tbps net =
  let total = ref 0.0 in
  for i = 0 to Infra.Network.nb_cables net - 1 do
    total := !total +. cable_capacity_tbps (Infra.Network.cable net i)
  done;
  !total

type corridor = {
  name : string;
  from_countries : string list;
  to_countries : string list;
}

let atlantic =
  {
    name = "US/Canada - Europe";
    from_countries = [ "United States"; "Canada" ];
    to_countries =
      [ "United Kingdom"; "Ireland"; "France"; "Spain"; "Portugal"; "Germany";
        "Netherlands"; "Belgium"; "Denmark"; "Norway"; "Iceland" ];
  }

let brazil_europe =
  { name = "Brazil - Europe"; from_countries = [ "Brazil" ];
    to_countries = [ "Portugal"; "Spain"; "France" ] }

let pacific =
  { name = "US - East Asia"; from_countries = [ "United States" ];
    to_countries = [ "Japan"; "China"; "Taiwan"; "South Korea"; "Philippines" ] }

let asia_europe =
  { name = "Asia - Europe"; from_countries = [ "India"; "Singapore"; "China"; "Japan" ];
    to_countries = [ "France"; "Italy"; "United Kingdom"; "Germany"; "Greece" ] }

type corridor_report = {
  corridor : corridor;
  healthy_tbps : float;
  expected_tbps : float;
  surviving_pct : float;
  min_cut_cables : string list;
}

let group_nodes net countries =
  List.concat_map (Datasets.Submarine.nodes_in_country net) countries

(* [dead] is a predicate on cable ids so the trial driver can pass its
   bitvector dead-set without materializing a bool array per trial. *)
let flow_between net ~dead ~sources ~sinks =
  let g = Infra.Network.graph_surviving net ~dead in
  (* Rebuild the edge -> cable mapping with the same keep predicate the
     graph used, so capacities line up with edge ids. *)
  let edge_cable = Hashtbl.create 1024 in
  let next = ref 0 in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    if not (dead c) then begin
      let cable = Infra.Network.cable net c in
      let hops = Infra.Cable.hop_count cable in
      for _ = 1 to hops do
        Hashtbl.replace edge_cable !next c;
        incr next
      done
    end
  done;
  let capacity e =
    match Hashtbl.find_opt edge_cable e with
    | Some c -> cable_capacity_tbps (Infra.Network.cable net c)
    | None -> 0.0
  in
  Netgraph.Flow.max_flow_multi g ~capacity ~sources ~sinks

(* The model-independent half of a corridor analysis: its two shores,
   healthy flow and min-cut cables. *)
type shores = {
  shores_of : corridor;
  sources : int list;
  sinks : int list;
  healthy : float;
  min_cut : string list;
}

let shores ~network corridor =
  let sources = group_nodes network corridor.from_countries in
  let sinks =
    (* A node can belong to both shores only through data errors; drop
       overlaps from the sink side. *)
    List.filter
      (fun n -> not (List.mem n sources))
      (group_nodes network corridor.to_countries)
  in
  if sources = [] || sinks = [] then
    { shores_of = corridor; sources; sinks; healthy = 0.0; min_cut = [] }
  else
    let healthy = flow_between network ~dead:(fun _ -> false) ~sources ~sinks in
    (* Min-cut cables of the healthy corridor: multi-terminal minimum cut
       between the two shores. *)
    let min_cut =
      let g, edge_cable = Infra.Network.to_graph network in
      let capacity e =
        let c = edge_cable e in
        if c >= 0 then cable_capacity_tbps (Infra.Network.cable network c) else 0.0
      in
      Netgraph.Flow.min_cut_edges_multi g ~capacity ~sources ~sinks
      |> List.map (fun e -> (Infra.Network.cable network (edge_cable e)).Infra.Cable.name)
      |> List.sort_uniq String.compare
    in
    { shores_of = corridor; sources; sinks; healthy; min_cut }

let resolved sh = sh.sources <> [] && sh.sinks <> []

let empty_report sh =
  { corridor = sh.shores_of; healthy_tbps = 0.0; expected_tbps = 0.0; surviving_pct = 0.0;
    min_cut_cables = [] }

let storm_report ~trials ~seed ?jobs ~network ~plan sh =
  if not (resolved sh) then empty_report sh
  else begin
    let acc =
      Plan.run_trials_par ?jobs plan ~trials ~seed ~init:0.0
        ~map:(fun ~rng:_ ~dead ->
          flow_between network ~dead:(Deadset.get dead) ~sources:sh.sources ~sinks:sh.sinks)
        ~merge:( +. )
    in
    let expected = acc /. float_of_int trials in
    {
      corridor = sh.shores_of;
      healthy_tbps = sh.healthy;
      expected_tbps = expected;
      surviving_pct = (if sh.healthy <= 0.0 then 0.0 else 100.0 *. expected /. sh.healthy);
      min_cut_cables = sh.min_cut;
    }
  end

let analyze_corridor ?(trials = 10) ?(seed = 71) ?(spacing_km = 150.0) ?jobs ~network
    ~model corridor =
  let sh = shores ~network corridor in
  if not (resolved sh) then empty_report sh
  else
    storm_report ~trials ~seed ?jobs ~network
      ~plan:(Plan.compile ~spacing_km ~network ~model ())
      sh

(* The shores, healthy flows and min cuts do not depend on the model, and
   the plan does not depend on the corridor: each is computed once. *)
let standard_report ?(trials = 10) ?jobs ~network ~models () =
  let all = List.map (shores ~network) [ atlantic; brazil_europe; pacific; asia_europe ] in
  List.map
    (fun model ->
      let plan = Plan.compile ~spacing_km:150.0 ~network ~model () in
      List.map (storm_report ~trials ~seed:71 ?jobs ~network ~plan) all)
    models
