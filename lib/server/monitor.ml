(* Process-global self-monitoring state: one {!Obs.Timeseries} ring and
   one {!Obs.Alerts} engine shared by the sampler domain, the /varz,
   /alertz and /dashboard handlers, and one-shot CLI consumers, plus the
   serving loops' metric handles that /statusz reads.  The server-wide
   request handles live here too, so /statusz reads them without a
   registry snapshot.

   Global for the same reason the metrics registry is global: handlers
   are plain [request -> response] functions with no channel back to the
   [Service.run] invocation that owns them.  [configure] replaces the
   whole state atomically (handlers grab the record once per request),
   and [Service.run] reconfigures at startup, so tests that boot
   multiple loopback servers in sequence each get a fresh ring. *)

let requests = Obs.Metrics.counter "server.requests"
let rejected_busy = Obs.Metrics.counter "server.rejected.busy"
let resp_2xx = Obs.Metrics.counter "server.resp.2xx"
let resp_4xx = Obs.Metrics.counter "server.resp.4xx"
let resp_5xx = Obs.Metrics.counter "server.resp.5xx"

(* Sub-millisecond buckets matter here: cached hits answer in tens of
   microseconds, and with 1.0 as the lowest bound nearly every request
   landed in one bucket, flattening the interpolated p50/p95 into
   noise. *)
let request_ms =
  Obs.Metrics.histogram "server.request.ms"
    ~buckets:[| 0.05; 0.25; 0.5; 1.0; 5.0; 25.0; 100.0; 500.0; 2000.0; 10000.0 |]

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

let alerts () = (current ()).alerts
let step_s () = (current ()).step_s
let loops () = (current ()).loops
