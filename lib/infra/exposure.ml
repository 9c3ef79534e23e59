type t = {
  cable_id : int;
  peak_gic_a : float;
  stress_ratio : float;
  worst_section_km : float * float;
}

let path_of_cable ~network (c : Cable.t) =
  (* Sample each landing-to-landing hop so that the field integration sees
     intermediate latitudes, not just the endpoints. *)
  let coords = List.map (Network.node_coord network) c.Cable.landings in
  let rec expand = function
    | a :: (b :: _ as rest) ->
        (* Drop b; the next hop re-adds it. *)
        let rec drop_last = function [] | [ _ ] -> [] | p :: ps -> p :: drop_last ps in
        drop_last (Geo.Geodesic.sample_every_km a b ~step_km:250.0) @ expand rest
    | [ last ] -> [ last ]
    | [] -> []
  in
  expand coords

let exposure_evals = Obs.Metrics.counter "gic.exposure_evals"

let peak_gic_hist =
  Obs.Metrics.histogram "gic.peak_gic_a"
    ~buckets:[| 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0 |]

let of_cable ?interval_km ~storm ~network (c : Cable.t) =
  Obs.Metrics.incr exposure_evals;
  let path = path_of_cable ~network c in
  let grounds = Grounding.chainages ?interval_km ~length_km:c.Cable.length_km () in
  if grounds = [] then
    { cable_id = c.Cable.id; peak_gic_a = 0.0; stress_ratio = 0.0; worst_section_km = (0.0, 0.0) }
  else
    let result = Gic.Induced.compute ~storm ~path ~ground_chainages_km:grounds () in
    let worst =
      List.fold_left
        (fun ((_, _, g_best) as best) (s : Gic.Induced.section) ->
          if Float.abs s.Gic.Induced.gic_a > g_best then
            (s.Gic.Induced.start_km, s.Gic.Induced.end_km, Float.abs s.Gic.Induced.gic_a)
          else best)
        (0.0, 0.0, 0.0) result.Gic.Induced.sections
    in
    let a, b, _ = worst in
    Obs.Metrics.observe peak_gic_hist result.Gic.Induced.peak_gic_a;
    {
      cable_id = c.Cable.id;
      peak_gic_a = result.Gic.Induced.peak_gic_a;
      stress_ratio = result.Gic.Induced.peak_gic_a /. 1.0;
      worst_section_km = (a, b);
    }

let failure_probability ?(scale_a = 30.0) t =
  if scale_a <= 0.0 then invalid_arg "Exposure.failure_probability: scale <= 0";
  1.0 -. exp (-.t.peak_gic_a /. scale_a)

let network_exposures ?interval_km ~storm network =
  Obs.Span.with_ ~name:"gic.network_exposures" @@ fun () ->
  Array.init (Network.nb_cables network) (fun i ->
      of_cable ?interval_km ~storm ~network (Network.cable network i))
