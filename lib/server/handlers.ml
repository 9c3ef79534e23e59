let healthz _req = Http.response ~status:200 "{\"status\":\"ok\"}\n"

(* Single source of truth for the binary's version: the CLI's
   [Cmd.info ~version] and the /statusz build block both read it. *)
let version = "1.0.0"

(* Process start, for /statusz uptime.  Module-initialisation time is
   close enough to exec time and needs no plumbing through Service. *)
let started_ns = Obs.Clock.monotonic ()

let statusz _req =
  Obs.Resource.sample ();
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap with Some (Obs.Metrics.Counter n) -> n | _ -> 0
  in
  let gauge name =
    match List.assoc_opt name snap with Some (Obs.Metrics.Gauge v) -> v | _ -> 0.0
  in
  let open Obs.Json in
  let int n = Number (float_of_int n) in
  let latency =
    match List.assoc_opt "server.request.ms" snap with
    | Some (Obs.Metrics.Histogram { bounds; counts; sum; count }) ->
        let q p =
          match Obs.Metrics.quantile ~bounds ~counts p with
          | Some v -> Number v
          | None -> Null
        in
        Object
          [
            ("count", int count);
            ("sum_ms", Number sum);
            ("p50", q 0.5);
            ("p95", q 0.95);
            ("p99", q 0.99);
          ]
    | _ -> Object [ ("count", int 0); ("p50", Null); ("p95", Null); ("p99", Null) ]
  in
  (* One row per serving loop, read through the handles the running
     server registered in {!Monitor}.  The rows' [requests] sum to
     [requests.total]: both counters are bumped at the same instruction
     in the loop. *)
  let loops = Monitor.loops () in
  let workers =
    Array.to_list loops
    |> List.mapi (fun i (l : Monitor.loop) ->
           Object
             [
               ("id", int i);
               ("requests", int (Obs.Metrics.counter_value l.Monitor.requests));
               ("busy_ms", Number (Obs.Metrics.gauge_value l.Monitor.busy_ms));
             ])
  in
  let alerts_summary =
    let a = Monitor.alerts () in
    Object
      [
        ("rules", int (List.length (Obs.Alerts.rules a)));
        ("firing", int (Obs.Alerts.firing_count a));
      ]
  in
  let body =
    Object
      [
        ("status", String "ok");
        ( "build",
          Object
            [
              ("version", String version);
              ("ocaml", String Sys.ocaml_version);
              ("workers", int (Array.length loops));
              ("sampler_step_s", Number (Monitor.step_s ()));
            ] );
        ("alerts", alerts_summary);
        ( "uptime_s",
          Number (Int64.to_float (Int64.sub (Obs.Clock.monotonic ()) started_ns) /. 1e9)
        );
        ( "requests",
          Object
            [
              ("total", int (counter "server.requests"));
              ("2xx", int (counter "server.resp.2xx"));
              ("4xx", int (counter "server.resp.4xx"));
              ("5xx", int (counter "server.resp.5xx"));
              ("rejected_busy", int (counter "server.rejected.busy"));
            ] );
        ("latency_ms", latency);
        ("workers", Array workers);
        ( "sweep",
          Object
            [
              ("cells", int (counter "server.sweep.cells"));
              ("rows_streamed", int (counter "server.sweep.rows_streamed"));
              ("plans_compiled", int (counter "server.sweep.plans_compiled"));
            ] );
        ( "cache",
          Object
            [
              ("entries", int (Api.cache_length ()));
              ("capacity", int (Api.cache_capacity ()));
              ("hits", int (counter "server.cache.hits"));
              ("misses", int (counter "server.cache.misses"));
              ("evictions", int (counter "server.cache.evictions"));
            ] );
        ( "gc",
          Object
            [
              ("heap_words", Number (gauge "gc.heap_words"));
              ("minor_collections", Number (gauge "gc.minor_collections"));
              ("major_collections", Number (gauge "gc.major_collections"));
              ("compactions", Number (gauge "gc.compactions"));
            ] );
      ]
  in
  Http.response ~status:200 (Obs.Json.to_string body ^ "\n")

let metrics _req =
  (* Sample the GC/wall-clock gauges per scrape so /metrics reflects the
     process as of this request, exactly like the CLI dump paths do. *)
  Obs.Resource.sample ();
  Http.response
    ~content_type:"text/plain; version=0.0.4"
    ~status:200
    (Obs.Export.prometheus (Obs.Metrics.snapshot ()))

(* ---- windowed self-monitoring: /varz, /alertz, /dashboard ---- *)

let default_window_ns = 60_000_000_000L

let parse_window_param req =
  match Http.query_param req "window" with
  | None -> Ok default_window_ns
  | Some s -> Obs.Alerts.parse_window s

let state_name = function Obs.Alerts.Firing -> "firing" | Obs.Alerts.Ok_state -> "ok"

(* /varz points are [t_rel_s, v] pairs with t relative to the newest
   sample (0 = now, older is negative): raw monotonic nanosecond stamps
   exceed the 2^53 float mantissa, so encoding them as JSON numbers
   would silently round. *)
let varz req =
  match parse_window_param req with
  | Error msg -> Http.response ~status:400 (Http.error_body msg)
  | Ok window_ns ->
      Obs.Resource.sample ();
      (* Sample on scrape too: /varz stays live for sampler-less
         (one-shot) processes, and under the background sampler an extra
         timestamped sample only refines the series. *)
      Monitor.sample_now ();
      let m = Monitor.current () in
      let ts = m.Monitor.ts in
      let open Obs.Json in
      let now_ns =
        match Obs.Timeseries.latest ts with Some (t, _) -> t | None -> 0L
      in
      let rel t = Int64.to_float (Int64.sub t now_ns) /. 1e9 in
      let points pts =
        Array
          (List.map
             (fun p ->
               Array [ Number (rel p.Obs.Timeseries.p_ts_ns); Number p.Obs.Timeseries.p_v ])
             pts)
      in
      let opt_num = function Some v -> Number v | None -> Null in
      let series =
        match Obs.Timeseries.latest ts with
        | None -> []
        | Some (_, snap) ->
            List.map
              (fun (name, v) ->
                match v with
                | Obs.Metrics.Counter _ ->
                    ( name,
                      Object
                        [
                          ("kind", String "counter");
                          ( "rate_per_s",
                            opt_num (Obs.Timeseries.windowed_rate ts ~window_ns name) );
                          ("points", points (Obs.Timeseries.rate_series ts ~window_ns name));
                        ] )
                | Obs.Metrics.Gauge g ->
                    ( name,
                      Object
                        [
                          ("kind", String "gauge");
                          ("value", Number g);
                          ("points", points (Obs.Timeseries.gauge_series ts ~window_ns name));
                        ] )
                | Obs.Metrics.Histogram _ ->
                    let q p =
                      opt_num (Obs.Timeseries.windowed_quantile ts ~window_ns ~q:p name)
                    in
                    let qp p =
                      points (Obs.Timeseries.quantile_series ts ~window_ns ~q:p name)
                    in
                    ( name,
                      Object
                        [
                          ("kind", String "histogram");
                          ( "count",
                            match Obs.Timeseries.windowed_count ts ~window_ns name with
                            | Some n -> Number (float_of_int n)
                            | None -> Null );
                          ("p50", q 0.5);
                          ("p95", q 0.95);
                          ("p99", q 0.99);
                          ("p50_points", qp 0.5);
                          ("p95_points", qp 0.95);
                          ("p99_points", qp 0.99);
                        ] ))
              snap
      in
      let body =
        Object
          [
            ("window_s", Number (Int64.to_float window_ns /. 1e9));
            ("step_s", Number m.Monitor.step_s);
            ("samples", Number (float_of_int (Obs.Timeseries.length ts)));
            ("series", Object series);
          ]
      in
      Http.response ~status:200 (to_string body ^ "\n")

let alertz _req =
  let m = Monitor.current () in
  let now_ns =
    match Obs.Timeseries.latest m.Monitor.ts with Some (t, _) -> t | None -> 0L
  in
  let open Obs.Json in
  let rule_json st =
    let open Obs.Alerts in
    let r = st.st_rule in
    Object
      [
        ("rule", String r.r_src);
        ("metric", String r.r_metric);
        ( "objective",
          String
            (Printf.sprintf "%s%s%g" (agg_to_string r.r_agg) (cmp_to_string r.r_cmp)
               r.r_threshold) );
        ("window_s", Number (window_s r));
        ("state", String (state_name st.st_state));
        ( "since_age_s",
          match st.st_since_ns with
          | Some t -> Number (Int64.to_float (Int64.sub now_ns t) /. 1e9)
          | None -> Null );
        ("transitions", Number (float_of_int st.st_transitions));
        ("value", match st.st_value with Some v -> Number v | None -> Null);
        ( "short_value",
          match st.st_short_value with Some v -> Number v | None -> Null );
      ]
  in
  let body =
    Object
      [
        ("firing", Number (float_of_int (Obs.Alerts.firing_count m.Monitor.alerts)));
        ("rules", Array (List.map rule_json (Obs.Alerts.statuses m.Monitor.alerts)));
      ]
  in
  Http.response ~status:200 (to_string body ^ "\n")

let dashboard req =
  match parse_window_param req with
  | Error msg -> Http.response ~status:400 (Http.error_body msg)
  | Ok window_ns ->
      Obs.Resource.sample ();
      Monitor.sample_now ();
      let m = Monitor.current () in
      let ts = m.Monitor.ts in
      let fmt v = Printf.sprintf "%.4g" v in
      let values pts = List.map (fun p -> p.Obs.Timeseries.p_v) pts in
      let rows =
        match Obs.Timeseries.latest ts with
        | None -> []
        | Some (_, snap) ->
            List.map
              (fun (name, v) ->
                match v with
                | Obs.Metrics.Counter _ ->
                    {
                      Dashboard.row_name = name;
                      row_kind = "rate";
                      row_value =
                        (match Obs.Timeseries.windowed_rate ts ~window_ns name with
                        | Some r -> fmt r ^ "/s"
                        | None -> "-");
                      row_series = values (Obs.Timeseries.rate_series ts ~window_ns name);
                    }
                | Obs.Metrics.Gauge g ->
                    {
                      Dashboard.row_name = name;
                      row_kind = "gauge";
                      row_value = fmt g;
                      row_series = values (Obs.Timeseries.gauge_series ts ~window_ns name);
                    }
                | Obs.Metrics.Histogram _ ->
                    {
                      Dashboard.row_name = name;
                      row_kind = "p99";
                      row_value =
                        (match
                           Obs.Timeseries.windowed_quantile ts ~window_ns ~q:0.99 name
                         with
                        | Some v -> fmt v
                        | None -> "-");
                      row_series =
                        values (Obs.Timeseries.quantile_series ts ~window_ns ~q:0.99 name);
                    })
              snap
      in
      let alerts =
        List.map
          (fun st ->
            let open Obs.Alerts in
            {
              Dashboard.al_rule = st.st_rule.r_src;
              al_state = state_name st.st_state;
              al_value = (match st.st_value with Some v -> fmt v | None -> "-");
            })
          (Obs.Alerts.statuses m.Monitor.alerts)
      in
      Http.response
        ~content_type:"text/html; charset=utf-8"
        ~status:200
        (Dashboard.render
           ~window_s:(Int64.to_float window_ns /. 1e9)
           ~step_s:m.Monitor.step_s
           ~samples:(Obs.Timeseries.length ts)
           ~rows ~alerts)

(* One shape for the three analysis endpoints: decode the body over the
   defaults, derive the canonical key, and answer through the result
   cache.  [compute] runs under the "server.handler" span — a cache hit
   never opens it (nothing is computed). *)
let analysis ~base ~of_json ~key ~compute (req : Http.request) =
  match Api.params_of_body ~base ~of_json req.Http.body with
  | Error msg -> Http.response ~status:400 (Http.error_body msg)
  | Ok params -> (
      match
        Api.with_cache ~key:(key params) (fun () ->
            Obs.Span.with_ ~name:"server.handler" (fun () -> compute params))
      with
      | Ok body -> Http.response ~status:200 body
      | Error msg -> Http.response ~status:400 (Http.error_body msg))

let simulate =
  analysis ~base:Api.sim_defaults ~of_json:Api.sim_of_json ~key:Api.sim_key
    ~compute:(fun p -> Ok (Api.simulate_body p))

let scenario =
  analysis ~base:Api.scenario_defaults ~of_json:Api.scenario_of_json
    ~key:Api.scenario_key ~compute:Api.scenario_body

let countries =
  analysis ~base:Api.countries_defaults ~of_json:Api.countries_of_json
    ~key:Api.countries_key ~compute:(fun p -> Ok (Api.countries_body p))

(* ---- /sweep: grid in, chunked JSONL out ---- *)

(* Served-sweep counters, distinct from the engine's own [sweep.*]
   family: these count only what went over HTTP, so [solarstorm top]
   can show sweep throughput next to the request metrics. *)
let sw_cells = Obs.Metrics.counter "server.sweep.cells"
let sw_rows = Obs.Metrics.counter "server.sweep.rows_streamed"
let sw_plans = Obs.Metrics.counter "server.sweep.plans_compiled"

(* Grid validation happens here, before the reply is chosen, so a bad
   grid is still an ordinary fixed 400; only a valid grid starts a
   stream (whose status is already on the wire when cells execute).
   Streams bypass the result cache — a sweep's value is incremental
   delivery, and its cells already reuse plans and dataset builds. *)
let sweep (req : Http.request) =
  let bad msg = Router.Response (Http.response ~status:400 (Http.error_body msg)) in
  match
    Api.params_of_body ~base:[] ~of_json:(fun _ j -> Api.sweep_axes_of_json j)
      req.Http.body
  with
  | Error msg -> bad msg
  | Ok axes -> (
      match Stormsim.Sweep.expand axes with
      | Error msg -> bad msg
      | Ok cells ->
          Router.Stream
            {
              Router.s_status = 200;
              s_content_type = "application/x-ndjson";
              s_headers = [];
              s_body =
                (fun emit ->
                  let summary =
                    Obs.Span.with_ ~name:"server.sweep" @@ fun () ->
                    Stormsim.Sweep.run ~cells () ~emit:(fun row ->
                        Obs.Metrics.incr sw_rows;
                        emit (Stormsim.Sweep.row_line row))
                  in
                  Obs.Metrics.add sw_cells summary.Stormsim.Sweep.cells;
                  Obs.Metrics.add sw_plans summary.Stormsim.Sweep.plans_compiled);
            })

let fixed handler req = Router.Response (handler req)

let routes () =
  [
    { Router.meth = Http.GET; route_path = "/healthz"; handler = fixed healthz };
    { Router.meth = Http.GET; route_path = "/metrics"; handler = fixed metrics };
    { Router.meth = Http.GET; route_path = "/statusz"; handler = fixed statusz };
    { Router.meth = Http.GET; route_path = "/varz"; handler = fixed varz };
    { Router.meth = Http.GET; route_path = "/alertz"; handler = fixed alertz };
    { Router.meth = Http.GET; route_path = "/dashboard"; handler = fixed dashboard };
    { Router.meth = Http.POST; route_path = "/simulate"; handler = fixed simulate };
    { Router.meth = Http.POST; route_path = "/scenario"; handler = fixed scenario };
    { Router.meth = Http.POST; route_path = "/countries"; handler = fixed countries };
    { Router.meth = Http.POST; route_path = "/sweep"; handler = sweep };
  ]
