(** The long-running simulation service behind [solarstorm serve]: N
    self-contained event loops, backpressure and graceful shutdown.

    Concurrency model (DESIGN.md §8): [--workers N] means N identical
    event loops and nothing else.  The calling domain runs loop 0 and
    N−1 spawned domains run the others; all share one non-blocking
    listen socket.  Each loop owns the connections it accepts end to
    end — accept, readiness [select], parse, dispatch, write, idle
    reaping and drain — so a connection never moves between domains.
    A loop accepts at most one connection per tick, so a burst of
    connections spreads over the loops, and serves one request per
    ready connection per tick, round-robin, so a pipelining client
    cannot starve the others.

    Requests on different loops run genuinely in parallel, so
    everything they touch is domain-safe: the result cache is
    lock-striped ({!Lru.Sharded} via {!Api}), plan/dataset memos are
    single-flight mutexes, metrics are sharded atomics, and the trace
    context is domain-local.  Responses are byte-identical for any
    loop count — simulation draws are per-request state, exactly as
    {!Stormsim.Plan.run_trials_par} proves per-trial.

    Backpressure: open connections across the whole process are capped
    at [max_pending]; past it a new connection is answered
    [503 Service Unavailable] and closed instead of queueing without
    bound.  A connection whose descriptor is at or above FD_SETSIZE
    (1024), which [select] cannot watch, gets the same 503.  An
    [accept] failing with EMFILE, ENFILE or ECONNABORTED counts as a
    busy rejection and pauses that loop's accepting for [idle_poll_s].

    Shutdown: {!stop} (or SIGINT/SIGTERM via {!install_signal_handlers})
    makes every loop stop accepting and serve the requests it has
    already read or that are already readable, with
    [Connection: close], until the [drain_grace_s] deadline; it then
    closes what is left.  Loop 0 joins the other loops and the sampler
    and returns — the CLI then exits 0. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral (the OS picks; see [on_ready]) *)
  workers : int;
      (** event loops, each on its own domain (loop 0 on the caller's);
          [0] (default) = {!Exec.default_jobs} — i.e.
          [--jobs]/[SOLARSTORM_JOBS], else 1 *)
  max_pending : int;
      (** connections open at once across all loops; over → 503 *)
  max_head : int;  (** request-line + header byte cap (431 over it) *)
  max_body : int;  (** body byte cap (413 over it) *)
  read_timeout_s : float;  (** per-read stall budget (408 past it) *)
  idle_timeout_s : float;  (** silent keep-alive connections are closed *)
  idle_poll_s : float;
      (** readiness-poll tick; bounds stop latency and is how long a
          loop stops accepting after an EMFILE/ENFILE/ECONNABORTED *)
  drain_grace_s : float;  (** budget for serving already-read requests on stop *)
  log : string -> unit;  (** service log lines (default: stdout) *)
  trace_seed : int option;
      (** seed for per-request trace ids: [Some s] makes ids
          reproducible across runs (tests, CI); [None] (default) seeds
          from wall clock ⊕ pid at {!run} time.  Each loop draws from
          its own SplitMix64 stream, one id per request it serves, so
          an id is a function of (seed, loop, per-loop index).  Loop 0's
          stream is the single-loop stream: with [workers = 1] the n-th
          request gets the same id on every run *)
  sampler_step_s : float;
      (** self-monitoring sampling step (default 1 s): a dedicated
          sampler domain freezes a metrics snapshot into the {!Monitor}
          ring and evaluates SLO rules every step.  [0] disables the
          sampler ([/varz] still samples on scrape) *)
  slo_rules : Obs.Alerts.rule list;
      (** burn-rate alert rules evaluated each sampler step (the CLI
          parses [--slo] strings with {!Obs.Alerts.parse_rule}) *)
  retention : int;  (** ring slots kept for windowed queries (default 600) *)
}

val default_config : config

val run : ?on_ready:(port:int -> unit) -> config -> unit
(** Bind and listen, spawn the other [workers − 1] loops (plus the
    self-monitoring sampler domain unless [sampler_step_s = 0]), run
    loop 0 on the calling domain until {!stop}, then drain; all spawned
    domains are joined before returning.  [on_ready] fires once with
    the actually-bound port (useful with [port = 0]) before loop 0's
    first accept.  Each loop's handles — the
    [server.worker.<i>.requests] counter and [server.worker.<i>.busy_ms]
    gauge — are registered in {!Monitor} for [/statusz]; the loop count
    is on the [server.workers] gauge and open connections on
    [server.pending].
    @raise Unix.Unix_error when the bind/listen itself fails (address
    in use, permission). *)

val fd_index : Unix.file_descr -> int
(** The descriptor's number, which [Unix.select] needs below FD_SETSIZE
    (1024).  Unix only: there [Unix.file_descr] is an [int]; on Windows
    it is a handle and this helper is meaningless. *)

val stop : unit -> unit
(** Ask a running {!run} to drain and return.  Safe to call from a
    signal handler or another domain; takes effect within
    [idle_poll_s]. *)

val install_signal_handlers : unit -> unit
(** Route SIGINT and SIGTERM to {!stop} (and ignore SIGPIPE, which
    writing to a disconnected peer would otherwise raise as a process
    kill). *)
