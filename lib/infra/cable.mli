(** Long-haul cables: the failure unit of the paper's analysis.

    A cable interconnects an ordered chain of landing points (a submarine
    trunk with branches is flattened to the chain of its landings, which
    preserves the property the analysis needs: one repeater failure kills
    connectivity between {e all} of the cable's landings).  Length is the
    stated route length, at least the sum of great-circle hops. *)

type kind = Submarine | Land_fiber

type t = {
  id : int;
  name : string;
  kind : kind;
  landings : int list;  (** node ids, chain order; ≥ 2, distinct *)
  length_km : float;
  max_abs_lat : float;  (** highest |latitude| over the landings *)
}

val make :
  id:int ->
  name:string ->
  kind:kind ->
  landings:(int * Geo.Coord.t) list ->
  ?length_km:float ->
  unit ->
  t
(** Builds a cable from its landing chain.  When [length_km] is omitted it
    defaults to the great-circle chain length; an explicit value below the
    chain length is raised to it times 1.0 (stated lengths include slack).
    @raise Invalid_argument with fewer than 2 landings or duplicate node
    ids. *)

val repeater_count : t -> spacing_km:float -> int
(** Repeaters needed at a given spacing (uniform along the route). *)

val needs_repeaters : t -> spacing_km:float -> bool

val hop_count : t -> int
(** Number of consecutive landing pairs ([length of landings - 1]). *)

val risk_tier : t -> Geo.Latband.tier
(** The paper's tier from the highest-|latitude| endpoint (§4.3.3). *)

val segment_lengths : (int * Geo.Coord.t) list -> length_km:float -> float list
(** Distributes a stated total length over the landing chain's hops,
    proportionally to great-circle hop lengths.  Used when repeaters must
    be placed per-hop. *)
