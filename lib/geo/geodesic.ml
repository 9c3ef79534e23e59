(* Spherical linear interpolation between two points expressed as unit
   vectors; this is exact on the sphere and avoids longitude-wrap issues. *)

type vec3 = { x : float; y : float; z : float }

let to_vec c =
  let phi = Angle.deg_to_rad (Coord.lat c) and lam = Angle.deg_to_rad (Coord.lon c) in
  { x = cos phi *. cos lam; y = cos phi *. sin lam; z = sin phi }

let of_vec v =
  let r = sqrt ((v.x *. v.x) +. (v.y *. v.y) +. (v.z *. v.z)) in
  let lat = Angle.rad_to_deg (asin (v.z /. r)) in
  let lon = Angle.rad_to_deg (atan2 v.y v.x) in
  Coord.make ~lat ~lon

let intermediate a b f =
  if f <= 0.0 then a
  else if f >= 1.0 then b
  else
    let omega = Distance.central_angle_rad a b in
    if omega < 1e-12 then a
    else
      let va = to_vec a and vb = to_vec b in
      let sin_o = sin omega in
      if Float.abs sin_o < 1e-12 then
        (* Antipodal: pick the meridian route through the pole closest to a. *)
        let via_lat = if Coord.lat a >= 0.0 then 90.0 else -90.0 in
        let pole = Coord.make ~lat:via_lat ~lon:(Coord.lon a) in
        let vp = to_vec pole in
        let wa = sin ((1.0 -. f) *. omega) and wb = sin (f *. omega) in
        of_vec
          {
            x = (wa *. va.x) +. (wb *. vp.x);
            y = (wa *. va.y) +. (wb *. vp.y);
            z = (wa *. va.z) +. (wb *. vp.z);
          }
      else
        let wa = sin ((1.0 -. f) *. omega) /. sin_o and wb = sin (f *. omega) /. sin_o in
        of_vec
          {
            x = (wa *. va.x) +. (wb *. vb.x);
            y = (wa *. va.y) +. (wb *. vb.y);
            z = (wa *. va.z) +. (wb *. vb.z);
          }

let midpoint a b = intermediate a b 0.5

let waypoints a b ~n =
  if n < 1 then invalid_arg "Geodesic.waypoints: n < 1";
  List.init (n + 1) (fun i -> intermediate a b (float_of_int i /. float_of_int n))

let sample_every_km a b ~step_km =
  if step_km <= 0.0 then invalid_arg "Geodesic.sample_every_km: step <= 0";
  let total = Distance.haversine_km a b in
  let n = Int.max 1 (int_of_float (ceil (total /. step_km))) in
  waypoints a b ~n

type path = { points : Coord.t array; hops : float array }

let compile = function
  | [] -> invalid_arg "Geodesic.compile: empty path"
  | pts ->
      let points = Array.of_list pts in
      let hops =
        Array.init (Array.length points - 1) (fun i ->
            Distance.haversine_km points.(i) points.(i + 1))
      in
      { points; hops }

let length p = Array.fold_left ( +. ) 0.0 p.hops

(* The walk subtracts hop after hop from [d], so the fraction handed to
   [intermediate] is the same float a hop-by-hop walk of the list would
   give. *)
let point_at p d =
  let last = Array.length p.hops in
  if last = 0 || d <= 0.0 then p.points.(0)
  else
    let rec walk remaining i =
      if i = last then p.points.(last)
      else
        let hop = p.hops.(i) in
        if remaining <= hop then
          if hop < 1e-9 then p.points.(i)
          else intermediate p.points.(i) p.points.(i + 1) (remaining /. hop)
        else walk (remaining -. hop) (i + 1)
    in
    walk d 0

let point_at_km path d =
  if path = [] then invalid_arg "Geodesic.point_at_km: empty path";
  point_at (compile path) d

let positions_along path ~spacing_km =
  if spacing_km <= 0.0 then invalid_arg "Geodesic.positions_along: spacing <= 0";
  let total = Distance.path_length_km path in
  let rec collect compiled acc k =
    let d = float_of_int k *. spacing_km in
    if d >= total then List.rev acc
    else collect compiled ((d, point_at compiled d) :: acc) (k + 1)
  in
  if total <= spacing_km then [] else collect (compile path) [] 1
