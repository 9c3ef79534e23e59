(* N self-contained event loops over one listen socket.

   [run] binds one non-blocking listen socket, runs loop 0 on the
   calling domain and loops 1..N-1 on spawned domains.  Every loop is
   the same code: it owns each connection it accepts end to end —
   accept, readiness select, parse, dispatch, write, idle reaping and
   drain — so a connection never crosses domains and the HTTP conn
   buffer needs no lock.

   One tick of a loop:

     1. select() over the listen socket (unless accepting is paused)
        and the loop's own connections, with timeout 0 when one of them
        already holds buffered pipelined bytes;
     2. accept at most one connection, so a burst spreads over the
        loops — EAGAIN from losing the race to another loop is normal;
     3. serve one request on every ready or buffered connection — so a
        pipelining client cannot starve the rest — and reap those
        silent past [idle_timeout_s].

   Backpressure: one process-wide [Atomic] counts open connections;
   past [max_pending] a new connection is answered 503 and closed, and
   so is one whose descriptor select() cannot watch.  An [accept] that
   fails for lack of descriptors (EMFILE, ENFILE) or an aborted peer
   (ECONNABORTED) counts as a busy rejection and keeps the listen socket
   out of that loop's select for [idle_poll_s], instead of spinning on
   a socket that stays readable.  Every loop re-checks the stop flag
   each tick, so SIGINT/SIGTERM latency is bounded by [idle_poll_s]
   plus the request being served. *)

type config = {
  host : string;
  port : int;
  workers : int;
  max_pending : int;
  max_head : int;
  max_body : int;
  read_timeout_s : float;
  idle_timeout_s : float;
  idle_poll_s : float;
  drain_grace_s : float;
  log : string -> unit;
  trace_seed : int option;
  sampler_step_s : float;
  slo_rules : Obs.Alerts.rule list;
  retention : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = 0;
    max_pending = 64;
    max_head = Http.default_limits.Http.max_head;
    max_body = Http.default_limits.Http.max_body;
    read_timeout_s = 5.0;
    idle_timeout_s = 30.0;
    idle_poll_s = 0.25;
    drain_grace_s = 2.0;
    log = (fun s -> print_string s; flush stdout);
    trace_seed = None;
    sampler_step_s = 1.0;
    slo_rules = [];
    retention = 600;
  }

(* Per-request trace ids: SplitMix64 streams rendered as 16 hex chars,
   one stream per loop.  Loop [i] starts from [mix64 seed ⊕ mix64 i];
   [mix64 0 = 0], so loop 0's stream is the single-loop stream and
   [--workers 1 --trace-seed S] gives the n-th request the same id on
   every run.  With N loops an id is a function of (seed, loop,
   per-loop index).  Without [trace_seed] the seed is wall clock ⊕ pid
   at [run] time.  The state is loop-private, so a mutable field
   suffices. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let trace_seed = function
  | Some seed -> Int64.of_int seed
  | None ->
      Int64.logxor
        (Int64.of_float (Unix.gettimeofday () *. 1e6))
        (Int64.of_int (Unix.getpid ()))

let m_accepted = Obs.Metrics.counter "server.conns.accepted"
let g_pending = Obs.Metrics.gauge "server.pending"
let g_workers = Obs.Metrics.gauge "server.workers"

let count_status status =
  Obs.Metrics.incr
    Monitor.(if status >= 500 then resp_5xx else if status >= 400 then resp_4xx else resp_2xx)

let stop_flag = Atomic.make false
let stop () = Atomic.set stop_flag true

let install_signal_handlers () =
  let h = Sys.Signal_handle (fun _ -> stop ()) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

type client = { fd : Unix.file_descr; conn : Http.conn; mutable last_active : float }

let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
  end

let send_response fd ~close resp =
  count_status resp.Http.status;
  let bytes = Http.to_string ~close resp in
  match write_all fd bytes 0 (String.length bytes) with
  | () -> true
  | exception Unix.Unix_error (_, _, _) -> false

let meth_string = function Http.GET -> "GET" | Http.POST -> "POST" | Http.Other s -> s

(* One access-log line per request ({!Obs.Log} is a no-op unless the
   serve CLI enabled it with [--log]).  Emitted inside the request's
   trace context, so the line carries the same id as the [X-Trace-Id]
   header and the request's spans. *)
let access_log ~meth ~path ~status ~bytes ~dur_ms ~cache =
  Obs.Log.info "http.access"
    [
      ("method", Obs.Json.String meth);
      ("path", Obs.Json.String path);
      ("status", Obs.Json.Number (float_of_int status));
      ("bytes", Obs.Json.Number (float_of_int bytes));
      ("dur_ms", Obs.Json.Number dur_ms);
      ( "cache",
        Obs.Json.String
          (match cache with Some `Hit -> "hit" | Some `Miss -> "miss" | None -> "-") );
    ]

(* Serve one request off a ready connection, on the loop that owns it.
   The whole exchange — parse included — runs under the request's trace
   id, so even 4xx parse failures log with an id.  [force_close] is the
   drain path: whatever happens, the peer is told the connection is
   done. *)
let serve_one ~routes ~limits ~force_close ~trace ~loop_requests c =
  Obs.Span.with_trace trace @@ fun () ->
  match Http.parse_request ~limits c.conn with
  | Error Http.Eof -> `Close
  | Error e ->
      let resp = Http.error_response e in
      access_log ~meth:"-" ~path:"-" ~status:resp.Http.status
        ~bytes:(String.length resp.Http.body) ~dur_ms:0.0 ~cache:None;
      ignore (send_response c.fd ~close:true resp);
      `Close
  | Ok req -> (
      Obs.Metrics.incr Monitor.requests;
      Obs.Metrics.incr loop_requests;
      Obs.Span.with_ ~name:"server.request" @@ fun () ->
      let t0 = Obs.Span.now () in
      match Router.dispatch ~routes req with
      | Router.Response resp ->
          let dur_ms = Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6 in
          Obs.Metrics.observe Monitor.request_ms dur_ms;
          (* Echo the id so a slow response can be chased into the trace
             ([--profile]) and the access log without any server-side
             lookup. *)
          let resp =
            {
              resp with
              Http.extra_headers = ("X-Trace-Id", trace) :: resp.Http.extra_headers;
            }
          in
          access_log ~meth:(meth_string req.Http.meth) ~path:(Http.path req)
            ~status:resp.Http.status ~bytes:(String.length resp.Http.body) ~dur_ms
            ~cache:(Api.take_cache_outcome ());
          let close = force_close || Http.wants_close req in
          c.last_active <- Unix.gettimeofday ();
          if send_response c.fd ~close resp && not close then `Keep else `Close
      | Router.Stream s ->
          (* The status goes on the wire before the producer runs, so
             it is counted now; a producer failure can only truncate
             the stream (no terminal chunk, connection closed) — the
             peer detects it as a framing error, never a fresh head. *)
          count_status s.Router.s_status;
          let close = force_close || Http.wants_close req in
          let bytes = ref 0 in
          let ok = ref true in
          let write str =
            match write_all c.fd str 0 (String.length str) with
            | () -> ()
            | exception Unix.Unix_error (_, _, _) ->
                ok := false;
                raise_notrace Exit
          in
          (try
             Http.respond_stream ~content_type:s.Router.s_content_type
               ~headers:(("X-Trace-Id", trace) :: s.Router.s_headers)
               ~status:s.Router.s_status ~close ~write
               (fun emit ->
                 s.Router.s_body (fun payload ->
                     bytes := !bytes + String.length payload;
                     emit payload))
           with
          | Exit -> ()
          | _exn -> ok := false);
          let dur_ms = Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6 in
          Obs.Metrics.observe Monitor.request_ms dur_ms;
          access_log ~meth:(meth_string req.Http.meth) ~path:(Http.path req)
            ~status:s.Router.s_status ~bytes:!bytes ~dur_ms
            ~cache:(Api.take_cache_outcome ());
          c.last_active <- Unix.gettimeofday ();
          if !ok && not close then `Keep else `Close)

(* The self-monitoring sampler: its own domain ticking
   [Monitor.sample_now] every [step_s].  Sleeps in ≤50 ms slices so a
   SIGTERM parks it within one slice, not one step — a 30 s step must
   not add 30 s to shutdown. *)
let sampler_loop ~step_s () =
  let rec nap remaining =
    if remaining > 0.0 && not (Atomic.get stop_flag) then begin
      let slice = Float.min 0.05 remaining in
      (try Unix.sleepf slice with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      nap (remaining -. slice)
    end
  in
  let rec loop () =
    if not (Atomic.get stop_flag) then begin
      Monitor.sample_now ();
      nap step_s;
      loop ()
    end
  in
  loop ()

let busy_response =
  Http.response ~status:503 (Http.error_body "server busy: pending queue full")

let select_readable fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* [Unix.select] watches descriptors below FD_SETSIZE only and raises
   EINVAL past it.  [fd_index] reads a descriptor as its number: on Unix
   [Unix.file_descr] is an [int] (it is a handle only on Windows, which
   the service does not support). *)
let fd_setsize = 1024
let fd_index (fd : Unix.file_descr) : int = Obj.magic fd

(* What every loop of one [run] shares: the listen socket and the
   process-wide open-connection count behind [max_pending]. *)
type shared = {
  cfg : config;
  routes : Router.route list;
  limits : Http.limits;
  lsock : Unix.file_descr;
  open_conns : int Atomic.t;
}

(* One event loop's private state.  [stats] are its [/statusz] handles:
   [server.worker.<i>.requests] counts the requests it parsed (bumped
   with [server.requests], so the loops sum to the total) and
   [server.worker.<i>.busy_ms] gauges its cumulative serving time. *)
type loop = {
  stats : Monitor.loop;
  mutable busy_ms : float;
  mutable trace_state : int64;
  mutable conns : client list;
  mutable accept_after : float;  (* accepting is paused until then *)
}

let make_loop ~seed i =
  {
    stats =
      {
        Monitor.requests = Obs.Metrics.counter (Printf.sprintf "server.worker.%d.requests" i);
        busy_ms = Obs.Metrics.gauge (Printf.sprintf "server.worker.%d.busy_ms" i);
      };
    busy_ms = 0.0;
    trace_state = Int64.logxor (mix64 seed) (mix64 (Int64.of_int i));
    conns = [];
    accept_after = 0.0;
  }

let next_trace_id lp =
  lp.trace_state <- Int64.add lp.trace_state 0x9e3779b97f4a7c15L;
  Printf.sprintf "%016Lx" (mix64 lp.trace_state)

let reject fd =
  Obs.Metrics.incr Monitor.rejected_busy;
  ignore (send_response fd ~close:true busy_response);
  close_quietly fd

let close_client sh c =
  Atomic.decr sh.open_conns;
  close_quietly c.fd

let accept_one sh lp =
  match Unix.accept ~cloexec:true sh.lsock with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ECONNABORTED), _, _) ->
      Obs.Metrics.incr Monitor.rejected_busy;
      lp.accept_after <- Unix.gettimeofday () +. sh.cfg.idle_poll_s
  | fd, _addr ->
      (* Nagle + the peer's delayed ACK can park a small pipelined
         response for ~40 ms; responses are written in one buffered
         burst, so there is nothing for Nagle to coalesce anyway.
         Unix-domain sockets reject the option — ignore that. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_, _, _) -> ());
      if fd_index fd >= fd_setsize then reject fd
      else if Atomic.fetch_and_add sh.open_conns 1 >= sh.cfg.max_pending then begin
        Atomic.decr sh.open_conns;
        reject fd
      end
      else begin
        Obs.Metrics.incr m_accepted;
        let conn = Http.conn_of_fd ~timeout_s:sh.cfg.read_timeout_s fd in
        lp.conns <- { fd; conn; last_active = Unix.gettimeofday () } :: lp.conns
      end

let serve sh lp ~force_close c =
  let t0 = Obs.Span.now () in
  let trace = next_trace_id lp in
  let verdict =
    serve_one ~routes:sh.routes ~limits:sh.limits ~force_close ~trace
      ~loop_requests:lp.stats.Monitor.requests c
  in
  lp.busy_ms <- lp.busy_ms +. (Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6);
  Obs.Metrics.set lp.stats.Monitor.busy_ms lp.busy_ms;
  verdict

(* One tick (see the header).  [draining] stops accepting and idle
   reaping and tells every peer served this tick that its connection is
   done. *)
let tick sh lp ~draining ~timeout =
  Obs.Metrics.set g_pending (float_of_int (Atomic.get sh.open_conns));
  let listening = (not draining) && Unix.gettimeofday () >= lp.accept_after in
  let fds = List.map (fun c -> c.fd) lp.conns in
  let timeout = if List.exists (fun c -> Http.buffered c.conn) lp.conns then 0.0 else timeout in
  let ready = select_readable (if listening then sh.lsock :: fds else fds) timeout in
  if listening && List.mem sh.lsock ready then accept_one sh lp;
  let now = Unix.gettimeofday () in
  lp.conns <-
    List.filter
      (fun c ->
        if Http.buffered c.conn || List.mem c.fd ready then
          match serve sh lp ~force_close:draining c with
          | `Keep -> true
          | `Close ->
              close_client sh c;
              false
        else if (not draining) && now -. c.last_active > sh.cfg.idle_timeout_s then begin
          close_client sh c;
          false
        end
        else true)
      lp.conns

(* Serve until stopped, then drain: answer what is already read or
   readable — with [Connection: close] — until every connection is done
   or [drain_grace_s] runs out, and close what is left. *)
let run_loop ?(on_draining = ignore) sh lp =
  while not (Atomic.get stop_flag) do
    tick sh lp ~draining:false ~timeout:sh.cfg.idle_poll_s
  done;
  on_draining ();
  let deadline = Unix.gettimeofday () +. sh.cfg.drain_grace_s in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if lp.conns <> [] && left > 0.0 then begin
      tick sh lp ~draining:true ~timeout:(Float.min 0.05 left);
      drain ()
    end
  in
  drain ();
  List.iter (close_client sh) lp.conns;
  lp.conns <- []

let run ?on_ready cfg =
  Atomic.set stop_flag false;
  let nloops = if cfg.workers > 0 then cfg.workers else Exec.default_jobs () in
  let seed = trace_seed cfg.trace_seed in
  let loops = Array.init nloops (make_loop ~seed) in
  (* Fresh ring + alert engine per server run: stale samples from a
     previous run in this process (tests, bench) must not leak into
     /varz windows. *)
  ignore
    (Monitor.configure ~step_s:cfg.sampler_step_s ~retention:cfg.retention
       ~rules:cfg.slo_rules
       ~loops:(Array.map (fun lp -> lp.stats) loops)
       ());
  Obs.Metrics.set g_workers (float_of_int nloops);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> close_quietly lsock) @@ fun () ->
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen lsock 64;
  Unix.set_nonblock lsock;
  let port =
    match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  let sh =
    {
      cfg;
      routes = Handlers.routes ();
      limits = { Http.max_head = cfg.max_head; Http.max_body = cfg.max_body };
      lsock;
      open_conns = Atomic.make 0;
    }
  in
  let sampler =
    if cfg.sampler_step_s > 0.0 then Some (Domain.spawn (sampler_loop ~step_s:cfg.sampler_step_s))
    else None
  in
  let others =
    Array.init (nloops - 1) (fun i -> Domain.spawn (fun () -> run_loop sh loops.(i + 1)))
  in
  let joined = ref false in
  let join_all () =
    if not !joined then begin
      joined := true;
      (* Loops and sampler park on the stop flag alone; raise it here so
         an exceptional unwind (flag still false) cannot hang the join. *)
      Atomic.set stop_flag true;
      Array.iter Domain.join others;
      Option.iter Domain.join sampler
    end
  in
  Fun.protect ~finally:join_all @@ fun () ->
  Option.iter (fun f -> f ~port) on_ready;
  cfg.log
    (Printf.sprintf "solarstorm serve: listening on http://%s:%d (%d workers)\n" cfg.host
       port nloops);
  run_loop sh loops.(0) ~on_draining:(fun () -> cfg.log "solarstorm serve: draining\n");
  join_all ();
  cfg.log "solarstorm serve: stopped\n"
