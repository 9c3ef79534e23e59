(* Process-global self-monitoring state: one {!Obs.Timeseries} ring and
   one {!Obs.Alerts} engine shared by the sampler domain, the /varz,
   /alertz and /dashboard handlers, and one-shot CLI consumers, plus the
   serving loops' metric handles that /statusz reads.

   Global for the same reason the metrics registry is global: handlers
   are plain [request -> response] functions with no channel back to the
   [Service.run] invocation that owns them.  [configure] replaces the
   whole state atomically (handlers grab the record once per request),
   and [Service.run] reconfigures at startup, so tests that boot
   multiple loopback servers in sequence each get a fresh ring. *)

type loop = { requests : Obs.Metrics.counter; busy_ms : Obs.Metrics.gauge }

type t = {
  ts : Obs.Timeseries.t;
  alerts : Obs.Alerts.t;
  step_s : float;
  loops : loop array;
}

let make ?clock ?(step_s = 1.0) ?(retention = 600) ?(rules = []) ?(loops = [||]) () =
  let step_s = if step_s > 0.0 then step_s else 1.0 in
  let ts =
    Obs.Timeseries.create ?clock
      ~step_ns:(Int64.of_float (step_s *. 1e9))
      ~retention ()
  in
  { ts; alerts = Obs.Alerts.create rules; step_s; loops }

let state = Atomic.make (lazy (make ()))

let configure ?clock ?step_s ?retention ?rules ?loops () =
  let m = make ?clock ?step_s ?retention ?rules ?loops () in
  Atomic.set state (lazy m);
  m

let current () = Lazy.force (Atomic.get state)

(* One sampler tick: freeze a snapshot, then judge every rule against
   the updated ring.  Also the one-shot path for CLI consumers that have
   no background sampler. *)
let sample_now () =
  let m = current () in
  Obs.Timeseries.sample m.ts;
  Obs.Alerts.evaluate m.alerts m.ts

let timeseries () = (current ()).ts
let alerts () = (current ()).alerts
let step_s () = (current ()).step_s
let loops () = (current ()).loops
