type spec = {
  spacing_km : float;
  operating_current_a : float;
  damage_current_a : float;
  lifetime_years : float;
}

let default ~spacing_km =
  if spacing_km <= 0.0 then invalid_arg "Repeater.default: spacing <= 0";
  {
    spacing_km;
    operating_current_a = 1.0;
    (* Surge tolerance of the zener-protected feed path: roughly an order
       of magnitude above nominal. *)
    damage_current_a = 10.0;
    lifetime_years = 25.0;
  }

let paper_spacings_km = [ 50.0; 100.0; 150.0 ]

let count_for_length ~spacing_km ~length_km =
  if spacing_km <= 0.0 then invalid_arg "Repeater.count_for_length: spacing <= 0";
  if length_km < 0.0 then invalid_arg "Repeater.count_for_length: negative length";
  if length_km <= spacing_km then 0
  else
    (* Repeaters at spacing, 2*spacing, ... strictly inside the cable. *)
    let n = int_of_float (Float.ceil (length_km /. spacing_km)) - 1 in
    Int.max 0 n

let damaged_by spec ~gic_a = Float.abs gic_a > spec.damage_current_a
