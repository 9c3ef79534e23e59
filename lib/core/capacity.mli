(** Capacity-weighted failure analysis.

    The paper counts cables; operators count terabits.  This module
    assigns each cable a design capacity (fiber pairs shrink with span
    length — a transoceanic trunk carries fewer pairs than a festoon),
    and measures surviving inter-region capacity with max-flow, including
    the min-cut cables that bottleneck a corridor. *)

val cable_capacity_tbps : Infra.Cable.t -> float
(** Deterministic design capacity: [pairs × 15 Tbps] with 8 pairs below
    2,000 km, 6 below 8,000 km, 4 above (repeater power limits pair
    count on long spans). *)

val network_capacity_tbps : Infra.Network.t -> float
(** Total installed capacity. *)

type corridor = {
  name : string;
  from_countries : string list;
  to_countries : string list;
}

val atlantic : corridor
(** US/Canada ↔ Europe. *)

val brazil_europe : corridor
val pacific : corridor
(** US ↔ East Asia. *)

val asia_europe : corridor

type corridor_report = {
  corridor : corridor;
  healthy_tbps : float;
  expected_tbps : float;  (** mean over storm trials *)
  surviving_pct : float;
  min_cut_cables : string list;  (** bottleneck cables of the healthy corridor *)
}

val analyze_corridor :
  ?trials:int ->
  ?seed:int ->
  ?spacing_km:float ->
  ?jobs:int ->
  network:Infra.Network.t ->
  model:Failure_model.t ->
  corridor ->
  corridor_report
(** Max-flow capacity between the corridor's country groups, healthy and
    after Monte-Carlo storm failures ({!Plan.run_trials_par}:
    deterministic in [seed] for any [jobs]).  Corridors whose side
    resolves to no nodes report zeros. *)

val standard_report :
  ?trials:int -> ?jobs:int -> network:Infra.Network.t -> models:Failure_model.t list ->
  unit -> corridor_report list list
(** The four standard corridors under each model, one list per model in
    [models] order; each list equals {!analyze_corridor} of the four
    corridors with that model.  The model-independent healthy flows and
    min cuts are computed once for all models. *)
