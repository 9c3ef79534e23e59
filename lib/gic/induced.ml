type section = {
  start_km : float;
  end_km : float;
  emf_v : float;
  resistance_ohm : float;
  gic_a : float;
}

type result = { sections : section list; peak_gic_a : float; total_emf_v : float }

let default_line_resistance_ohm_km = 0.8
let default_ground_resistance_ohm = 2.0

let section_emf ~field ~path ~sample_km ~start_km ~end_km =
  (* Integrate |E| * projection over [start, end] in steps of sample_km
     using mid-point field amplitudes. *)
  let rec go acc d =
    if d >= end_km then acc
    else
      let d' = Float.min end_km (d +. sample_km) in
      let mid = Geo.Geodesic.point_at path ((d +. d') /. 2.0) in
      let e = field mid in
      go (acc +. (e *. (d' -. d) *. Efield.projection_factor_mean)) d'
  in
  go 0.0 start_km

let compute ?(line_resistance_ohm_km = default_line_resistance_ohm_km)
    ?(ground_resistance_ohm = default_ground_resistance_ohm) ?(sample_km = 100.0)
    ~storm ~path ~ground_chainages_km () =
  if path = [] then invalid_arg "Induced.compute: empty path";
  if line_resistance_ohm_km <= 0.0 || ground_resistance_ohm < 0.0 || sample_km <= 0.0
  then invalid_arg "Induced.compute: non-positive parameter";
  let path = Geo.Geodesic.compile path in
  let field = Efield.amplitude_fn storm in
  let total = Geo.Geodesic.length path in
  let grounds =
    List.sort_uniq Float.compare
      (0.0 :: total
      :: List.filter (fun d -> d > 0.0 && d < total) ground_chainages_km)
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let sections =
    List.filter_map
      (fun (a, b) ->
        let len = b -. a in
        if len <= 1e-6 then None
        else
          let emf = section_emf ~field ~path ~sample_km ~start_km:a ~end_km:b in
          let r = (line_resistance_ohm_km *. len) +. (2.0 *. ground_resistance_ohm) in
          Some { start_km = a; end_km = b; emf_v = emf; resistance_ohm = r; gic_a = emf /. r })
      (pairs grounds)
  in
  let peak = List.fold_left (fun m s -> Float.max m (Float.abs s.gic_a)) 0.0 sections in
  let total_emf = List.fold_left (fun m s -> m +. s.emf_v) 0.0 sections in
  { sections; peak_gic_a = peak; total_emf_v = total_emf }

let repeater_stress_ratio r ~operating_current_a =
  if operating_current_a <= 0.0 then
    invalid_arg "Induced.repeater_stress_ratio: non-positive operating current";
  r.peak_gic_a /. operating_current_a
