(* Tests for the interdomain-routing substrate: AS topology generation,
   valley-free BGP computation and the storm protocol comparison. *)

open Interdomain

(* A tiny hand-built topology:
     T1 core: 0, 1 (peers)
     T2: 2 (customer of 0), 3 (customer of 1); 2-3 peer
     stubs: 4 (customer of 2), 5 (customer of 3), 6 (customer of 2 and 3) *)
let tiny : As_topology.t =
  let n = 7 in
  let providers = Array.make n [] and customers = Array.make n [] and peers = Array.make n [] in
  let link c p =
    providers.(c) <- p :: providers.(c);
    customers.(p) <- c :: customers.(p)
  in
  let peer a b =
    peers.(a) <- b :: peers.(a);
    peers.(b) <- a :: peers.(b)
  in
  link 2 0;
  link 3 1;
  link 4 2;
  link 5 3;
  link 6 2;
  link 6 3;
  peer 0 1;
  peer 2 3;
  {
    As_topology.n;
    tier = [| As_topology.T1; T1; T2; T2; Stub; Stub; Stub |];
    home_lat = [| 50.0; 45.0; 40.0; 35.0; 30.0; 25.0; 0.0 |];
    providers;
    customers;
    peers;
  }

let generated = lazy (As_topology.generate ~n:600 ())

(* --- Topology --- *)

let test_tiny_valid () =
  match As_topology.validate tiny with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_generated_valid () =
  match As_topology.validate (Lazy.force generated) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_generated_tier_mix () =
  let t = Lazy.force generated in
  let count k = Array.fold_left (fun a x -> if x = k then a + 1 else a) 0 t.As_topology.tier in
  let t1 = count As_topology.T1 and t2 = count As_topology.T2 and stub = count As_topology.Stub in
  Alcotest.(check int) "total" t.As_topology.n (t1 + t2 + stub);
  Alcotest.(check bool) "few tier-1" true (t1 >= 5 && t1 < t2);
  Alcotest.(check bool) "stubs dominate" true (stub > t.As_topology.n / 2)

let test_generated_validation_arg () =
  Alcotest.check_raises "too small"
    (Invalid_argument "As_topology.generate: need at least 20 ASes") (fun () ->
      ignore (As_topology.generate ~n:5 ()))

let test_provider_cone () =
  (* Cone membership of stub 4: itself, 2 (its provider is on the path
     down? no: cone t dst = ASes that can descend to dst), i.e. 4, 2, 0. *)
  let cone = As_topology.provider_cone tiny 4 in
  Alcotest.(check bool) "self" true cone.(4);
  Alcotest.(check bool) "direct provider" true cone.(2);
  Alcotest.(check bool) "transit top" true cone.(0);
  Alcotest.(check bool) "other branch excluded" false cone.(3)

let test_degree_stats () =
  let mean, dmax = As_topology.degree_stats (Lazy.force generated) in
  Alcotest.(check bool) "mean degree 2-20" true (mean > 2.0 && mean < 20.0);
  Alcotest.(check bool) "hub exists" true (dmax > 10)

(* --- BGP --- *)

let alive = Bgp.all_alive tiny

let test_reachability_healthy () =
  (* Everything reaches everything in the tiny topology. *)
  for src = 0 to 6 do
    for dst = 0 to 6 do
      if not (Bgp.reachable tiny ~alive ~src ~dst) then
        Alcotest.fail (Printf.sprintf "%d cannot reach %d" src dst)
    done
  done

let test_shortest_path_shape () =
  match Bgp.shortest_path tiny ~alive ~src:4 ~dst:5 with
  | None -> Alcotest.fail "no path"
  | Some path ->
      Alcotest.(check bool) "valley free" true (Bgp.is_valley_free tiny path);
      Alcotest.(check int) "via the 2-3 peer link" 4 (List.length path);
      Alcotest.(check (list int)) "route" [ 4; 2; 3; 5 ] path

let test_shortest_path_self () =
  Alcotest.(check (option (list int))) "self" (Some [ 4 ]) (Bgp.shortest_path tiny ~alive ~src:4 ~dst:4)

let test_valley_enforcement () =
  (* 4 -> 2 -> 0 -> 1 -> 3 -> 5 is valley-free (up up peer down down);
     4 -> 2 -> 3 -> 1 ascends after a peer edge: not valley-free. *)
  Alcotest.(check bool) "up-peer-down ok" true
    (Bgp.is_valley_free tiny [ 4; 2; 0; 1; 3; 5 ]);
  Alcotest.(check bool) "peer then up rejected" false (Bgp.is_valley_free tiny [ 4; 2; 3; 1 ]);
  Alcotest.(check bool) "down then up rejected" false (Bgp.is_valley_free tiny [ 0; 2; 0 ]);
  Alcotest.(check bool) "non-edge rejected" false (Bgp.is_valley_free tiny [ 4; 5 ])

let test_dead_as_blocks () =
  let alive = Bgp.all_alive tiny in
  alive.(2) <- false;
  (* Stub 4's only provider is dead. *)
  Alcotest.(check bool) "4 cut off" false (Bgp.reachable tiny ~alive ~src:4 ~dst:5);
  (* Stub 6 is dual-homed and survives via 3. *)
  Alcotest.(check bool) "6 survives" true (Bgp.reachable tiny ~alive ~src:6 ~dst:5)

let test_reachability_fraction_symmetric_definition () =
  let f = Bgp.reachability_fraction tiny ~alive ~dst:5 in
  Alcotest.(check (float 1e-9)) "full" 1.0 f;
  let alive' = Bgp.all_alive tiny in
  alive'.(3) <- false;
  (* 5 loses its only provider: nobody reaches it. *)
  Alcotest.(check (float 1e-9)) "isolated dst" 0.0
    (Bgp.reachability_fraction tiny ~alive:alive' ~dst:5)

let test_disjoint_paths_dual_homed () =
  let paths = Bgp.disjoint_paths ~k:3 tiny ~alive ~src:6 ~dst:0 in
  Alcotest.(check bool) "at least 2 disjoint" true (List.length paths >= 2);
  (* Intermediate ASes must not repeat across paths. *)
  let intermediates =
    List.concat_map (fun p -> List.filter (fun x -> x <> 6 && x <> 0) p) paths
  in
  Alcotest.(check int) "disjoint intermediates"
    (List.length intermediates)
    (List.length (List.sort_uniq Int.compare intermediates))

let test_generated_healthy_reachability () =
  let t = Lazy.force generated in
  let alive = Bgp.all_alive t in
  (* Core and random stubs must be near-universally reachable. *)
  let f = Bgp.reachability_fraction t ~alive ~dst:0 in
  Alcotest.(check bool) (Printf.sprintf "reach %.3f > 0.99" f) true (f > 0.99)

let test_generated_paths_valley_free () =
  let t = Lazy.force generated in
  let alive = Bgp.all_alive t in
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let src = Rng.int rng t.As_topology.n and dst = Rng.int rng t.As_topology.n in
    match Bgp.shortest_path t ~alive ~src ~dst with
    | Some path ->
        if not (Bgp.is_valley_free t path) then
          Alcotest.fail
            (Printf.sprintf "path %s not valley-free"
               (String.concat "-" (List.map string_of_int path)))
    | None -> ()
  done

(* --- Storm --- *)

let test_tier_probabilities_ordering () =
  let h1, m1, l1 = Storm.tier_probabilities ~dst_nt:(-1200.0) in
  let h2, m2, l2 = Storm.tier_probabilities ~dst_nt:(-300.0) in
  Alcotest.(check bool) "within storm: high > mid > low" true (h1 > m1 && m1 > l1);
  Alcotest.(check bool) "across storms" true (h1 > h2 && m1 > m2 && l1 >= l2)

let test_draw_failures_latitude_bias () =
  let t = Lazy.force generated in
  let rng = Rng.create 7 in
  let dead_high = ref 0 and n_high = ref 0 and dead_low = ref 0 and n_low = ref 0 in
  for _ = 1 to 20 do
    let alive = Storm.draw_failures rng t ~dst_nt:(-1200.0) in
    Array.iteri
      (fun i a ->
        let l = Float.abs t.As_topology.home_lat.(i) in
        if l > 60.0 then begin
          incr n_high;
          if not a then incr dead_high
        end
        else if l <= 40.0 then begin
          incr n_low;
          if not a then incr dead_low
        end)
      alive
  done;
  let rate d n = if n = 0 then 0.0 else float_of_int d /. float_of_int n in
  Alcotest.(check bool) "high latitude dies more" true
    (rate !dead_high !n_high > 3.0 *. rate !dead_low !n_low)

let test_compare_protocols_invariants () =
  let t = Lazy.force generated in
  let o = Storm.compare_protocols ~pairs:100 t ~dst_nt:(-1200.0) in
  Alcotest.(check bool) "multipath >= bgp" true
    (o.Storm.multipath_continuity_pct >= o.Storm.bgp_continuity_pct -. 1e-9);
  Alcotest.(check bool) "reachability >= multipath" true
    (o.Storm.reachability_pct >= o.Storm.multipath_continuity_pct -. 25.0);
  Alcotest.(check bool) "diversity >= 1" true (o.Storm.mean_disjoint_paths >= 1.0);
  Alcotest.(check bool) "percent ranges" true
    (o.Storm.bgp_continuity_pct >= 0.0 && o.Storm.reachability_pct <= 100.0)

let test_compare_protocols_storm_ordering () =
  let t = Lazy.force generated in
  let weak = Storm.compare_protocols ~pairs:100 t ~dst_nt:(-200.0) in
  let strong = Storm.compare_protocols ~pairs:100 t ~dst_nt:(-1200.0) in
  Alcotest.(check bool) "stronger storm, less continuity" true
    (strong.Storm.bgp_continuity_pct <= weak.Storm.bgp_continuity_pct);
  Alcotest.(check bool) "mild storm barely hurts" true (weak.Storm.bgp_continuity_pct > 85.0)

(* Goldens recorded as [%h] before the topology generator and the
   protocol comparison were sped up: both must stay bit-identical. *)
let test_generated_adjacency_golden () =
  let t = Lazy.force generated in
  let b = Buffer.create 16384 in
  let add l =
    List.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) l;
    Buffer.add_char b ';'
  in
  Array.iter add t.As_topology.providers;
  Array.iter add t.As_topology.customers;
  Array.iter add t.As_topology.peers;
  Alcotest.(check string) "adjacency digest" "1fd358b39fd822a43cf2358a0947ce16"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_compare_protocols_goldens () =
  let t = Lazy.force generated in
  List.iter
    (fun (dst, expected) ->
      let o = Storm.compare_protocols ~pairs:100 t ~dst_nt:dst in
      Alcotest.(check string)
        (Printf.sprintf "outcome at Dst %.0f" dst)
        expected
        (Printf.sprintf "%h %h %h %h %h" o.Storm.ases_down_pct o.Storm.reachability_pct
           o.Storm.bgp_continuity_pct o.Storm.multipath_continuity_pct
           o.Storm.mean_disjoint_paths))
    [ (-300.0, "0x1p-1 0x1.9p+6 0x1.8p+6 0x1.9p+6 0x1.1333333333333p+1");
      (-600.0, "0x1.3555555555555p+2 0x1.9p+6 0x1.8p+6 0x1.9p+6 0x1.1333333333333p+1");
      (-1200.0, "0x1.9aaaaaaaaaaabp+3 0x1.9p+6 0x1.44p+6 0x1.9p+6 0x1.10a3d70a3d70ap+1") ]

let test_compare_protocols_needs_a_path () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Storm.compare_protocols: k < 1") (fun () ->
      ignore (Storm.compare_protocols ~k:0 tiny ~dst_nt:(-600.0)))

(* --- QCheck --- *)

let prop_paths_are_simple =
  QCheck.Test.make ~name:"shortest valley-free paths are simple" ~count:60
    QCheck.(pair (int_bound 599) (int_bound 599))
    (fun (src, dst) ->
      let t = Lazy.force generated in
      match Bgp.shortest_path t ~alive:(Bgp.all_alive t) ~src ~dst with
      | None -> true
      | Some p -> List.length p = List.length (List.sort_uniq Int.compare p))

let prop_reachability_symmetric =
  QCheck.Test.make ~name:"valley-free reachability is symmetric" ~count:40
    QCheck.(pair (int_bound 599) (int_bound 599))
    (fun (src, dst) ->
      let t = Lazy.force generated in
      let alive = Bgp.all_alive t in
      Bgp.reachable t ~alive ~src ~dst = Bgp.reachable t ~alive ~src:dst ~dst:src)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_paths_are_simple; prop_reachability_symmetric ]

let () =
  Alcotest.run "interdomain"
    [
      ( "topology",
        [ Alcotest.test_case "tiny valid" `Quick test_tiny_valid;
          Alcotest.test_case "generated valid" `Quick test_generated_valid;
          Alcotest.test_case "tier mix" `Quick test_generated_tier_mix;
          Alcotest.test_case "size validation" `Quick test_generated_validation_arg;
          Alcotest.test_case "provider cone" `Quick test_provider_cone;
          Alcotest.test_case "degree stats" `Quick test_degree_stats ] );
      ( "bgp",
        [ Alcotest.test_case "healthy reachability" `Quick test_reachability_healthy;
          Alcotest.test_case "shortest path shape" `Quick test_shortest_path_shape;
          Alcotest.test_case "self path" `Quick test_shortest_path_self;
          Alcotest.test_case "valley enforcement" `Quick test_valley_enforcement;
          Alcotest.test_case "dead AS blocks" `Quick test_dead_as_blocks;
          Alcotest.test_case "reachability fraction" `Quick
            test_reachability_fraction_symmetric_definition;
          Alcotest.test_case "disjoint paths" `Quick test_disjoint_paths_dual_homed;
          Alcotest.test_case "generated reachability" `Quick test_generated_healthy_reachability;
          Alcotest.test_case "generated paths valley-free" `Quick
            test_generated_paths_valley_free ] );
      ( "storm",
        [ Alcotest.test_case "tier probabilities" `Quick test_tier_probabilities_ordering;
          Alcotest.test_case "latitude bias" `Quick test_draw_failures_latitude_bias;
          Alcotest.test_case "protocol invariants" `Quick test_compare_protocols_invariants;
          Alcotest.test_case "storm ordering" `Quick test_compare_protocols_storm_ordering;
          Alcotest.test_case "k validation" `Quick test_compare_protocols_needs_a_path ] );
      ( "goldens",
        [ Alcotest.test_case "adjacency" `Quick test_generated_adjacency_golden;
          Alcotest.test_case "protocol outcomes" `Quick test_compare_protocols_goldens ] );
      ("properties", qcheck_tests);
    ]
