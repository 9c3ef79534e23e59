type outcome = {
  ases_down_pct : float;
  reachability_pct : float;
  bgp_continuity_pct : float;
  multipath_continuity_pct : float;
  mean_disjoint_paths : float;
}

let tier_probabilities ~dst_nt =
  let x = Float.abs dst_nt in
  if x >= 850.0 then (0.8, 0.25, 0.03)
  else if x >= 500.0 then (0.3, 0.08, 0.01)
  else (0.05, 0.01, 0.001)

let draw_failures rng (t : As_topology.t) ~dst_nt =
  let high, mid, low = tier_probabilities ~dst_nt in
  Array.init t.As_topology.n (fun i ->
      let l = Float.abs t.As_topology.home_lat.(i) in
      let p = if l > 60.0 then high else if l > 40.0 then mid else low in
      not (Rng.bernoulli rng ~p))

let compare_protocols ?(seed = 29) ?(pairs = 300) ?(k = 3) t ~dst_nt =
  if k < 1 then invalid_arg "Storm.compare_protocols: k < 1";
  let rng = Rng.create seed in
  let healthy = Bgp.all_alive t in
  let alive = draw_failures rng t ~dst_nt in
  let n = t.As_topology.n in
  let down = ref 0 in
  Array.iter (fun a -> if not a then incr down) alive;
  let path_alive path = List.for_all (fun x -> alive.(x)) path in
  let sampled = ref 0 in
  let reachable_post = ref 0 and bgp_ok = ref 0 and multi_ok = ref 0 in
  let diversity = ref 0.0 in
  let guard = ref 0 in
  while !sampled < pairs && !guard < pairs * 30 do
    incr guard;
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst && alive.(src) && alive.(dst) then begin
      (* Pre-storm state: best path and k disjoint paths on the healthy
         topology. *)
      match Bgp.disjoint_paths ~k t ~alive:healthy ~src ~dst with
      | [] -> () (* unreachable even before the storm: skip the pair *)
      | best :: _ as dpaths ->
          (* The first disjoint path is the healthy shortest path. *)
          incr sampled;
          diversity := !diversity +. float_of_int (List.length dpaths);
          if path_alive best then incr bgp_ok;
          if List.exists path_alive dpaths then incr multi_ok;
          if Bgp.reachable t ~alive ~src ~dst then incr reachable_post
    end
  done;
  let pct x = if !sampled = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int !sampled in
  {
    ases_down_pct = 100.0 *. float_of_int !down /. float_of_int n;
    reachability_pct = pct !reachable_post;
    bgp_continuity_pct = pct !bgp_ok;
    multipath_continuity_pct = pct !multi_ok;
    mean_disjoint_paths =
      (if !sampled = 0 then 0.0 else !diversity /. float_of_int !sampled);
  }
