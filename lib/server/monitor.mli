(** Process-global self-monitoring state: the {!Obs.Timeseries} ring and
    {!Obs.Alerts} engine behind [/varz], [/alertz] and [/dashboard], and
    the serving metric handles behind [/statusz].

    Global because handlers are context-free functions, like the metrics
    registry they sample.  {!Service.run} calls {!configure} at startup
    (fresh ring per server run); anything may call {!sample_now} for
    on-demand, sampler-less use. *)

val requests : Obs.Metrics.counter
val rejected_busy : Obs.Metrics.counter
val resp_2xx : Obs.Metrics.counter
val resp_4xx : Obs.Metrics.counter
val resp_5xx : Obs.Metrics.counter
val request_ms : Obs.Metrics.histogram
(** Server-wide handles ([server.requests], [server.rejected.busy],
    [server.resp.2xx|4xx|5xx], [server.request.ms]), bumped by
    {!Service.run} and read directly by [/statusz]. *)

type loop = {
  requests : Obs.Metrics.counter;  (** [server.worker.<i>.requests] *)
  busy_ms : Obs.Metrics.gauge;  (** [server.worker.<i>.busy_ms] *)
}
(** One serving loop's metric handles, registered by {!Service.run} and
    read directly by [/statusz]. *)

type t = {
  ts : Obs.Timeseries.t;
  alerts : Obs.Alerts.t;
  step_s : float;  (** intended sampling step, seconds *)
  loops : loop array;  (** the running server's loops, by index *)
}

val configure :
  ?clock:Obs.Clock.t ->
  ?step_s:float ->
  ?retention:int ->
  ?rules:Obs.Alerts.rule list ->
  ?loops:loop array ->
  unit ->
  t
(** Replace the global state with a fresh ring + engine (defaults: 1 s
    step, 600-slot retention, no rules, no loops).  Non-positive
    [step_s] falls back to 1 s. *)

val current : unit -> t
(** The active state, lazily defaulted if {!configure} was never
    called. *)

val sample_now : unit -> unit
(** One tick: snapshot the registry into the ring, then evaluate all
    alert rules.  Called by the service sampler domain each step and by
    one-shot CLI consumers. *)

val alerts : unit -> Obs.Alerts.t
val step_s : unit -> float
val loops : unit -> loop array
