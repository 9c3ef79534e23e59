#!/usr/bin/env python3
"""The solarstorm benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --stability K --workload NAME|all [--seconds S]

Run from the root of a source checkout.  It builds `solarstorm` and the
benchmark's own tool `pb` from source into .bench_build/, boots fresh
`solarstorm serve` / `solarstorm figures` processes, drives the workload
generated from --seed, checks every output, and prints one JSON object
as the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.
See perfbench/README.md for the metrics, the workloads and why.
"""

import argparse
import array
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD = ".bench_build"
SOLAR = os.path.join(BUILD, "default", "bin", "solarstorm.exe")
PB = os.path.join(BUILD, "default", "perfbench", "pb.exe")
HERE = os.path.dirname(os.path.abspath(__file__))
FIG_REF = os.path.join(HERE, "figures.ref")
NPROC = len(os.sched_getaffinity(0))
SETUP_BOOTS = 7  # fresh servers per run; setup_s is the median CPU of the calmer boots (setup_servers)
RSS_EVERY_S = 0.1  # how often the server's resident set is sampled during a timed phase
VERSION_SPAWNS = 15  # figures set-up: fresh process starts per run
PROC_TIMEOUT_S = 150  # any one helper process; a whole run must end within 180 s

HOT_LIMIT_MS = 5  # latency limit (p99) of cached /simulate requests; --selftest holds the generator to it
CHURN_RATE = 100  # simulate-churn: requests per second, open loop
CHURN_LIMIT_MS = 150  # simulate-churn latency limit on p99
LATE_SHARE = 0.1  # an open loop whose p99 lateness passes this share of the limit did not keep its schedule
HOT_RSS_AFTER = 100_000  # simulate-hot: rss_mb is the server's resident set once it has answered this many requests
HOT_WINDOW_S = 0.5  # simulate-hot: length of a CPU window (sweep-grid's is one dedup + heavy pair)
HOT_DEPTH = 8  # simulate-hot: requests kept in flight on each of the nproc connections
HOT_SEQUENCE = 4096  # seeded body indices the hot generator cycles through
TRACE_REQUESTS = 20000  # simulate-hot traced run: requests joined to the access log and replayed

END_TO_END = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("rss_mb", "MB"),
]

HEAVY_FIGURES = ["risk-horizon", "interdomain", "capacity", "ablations", "mitigation", "fig7"]

PER_LAYER = (
    [
        ("service.wait_p50_ms", "ms"),
        ("service.wait_p99_ms", "ms"),
        ("service.busy_pct", "%"),
        ("service.rejected", "count"),
        ("http.parse_us", "us"),
        ("http.write_us", "us"),
        ("api.dispatch_us", "us"),
        ("cache.hit_ratio", "ratio"),
        ("cache.evictions", "count"),
        ("churn.hot_p99_ms", "ms"),
        ("churn.warm_p99_ms", "ms"),
        ("churn.cold_p50_ms", "ms"),
        ("gen.late_p99_ms", "ms"),
        ("dataset.builds", "count"),
        ("dataset.build_ms", "ms"),
        ("plan.compiles", "count"),
        ("plan.compile_ms", "ms"),
        ("trials.count", "count"),
        ("trials.ns_per_trial", "ns"),
        ("sweep.cells", "count"),
        ("sweep.batches", "count"),
        ("sweep.plans_compiled", "count"),
        ("sweep.expand_us", "us"),
        ("sweep.row_us", "us"),
        ("sweep.dedup_p50_ms", "ms"),
        ("exec.parallel_sections", "count"),
        ("exec.speedup", "ratio"),
        ("gc.minor_per_op", "count"),
        ("gc.major_per_op", "count"),
        ("gc.promoted_words_per_op", "words"),
        ("figures.context_ms", "ms"),
    ]
    + [("figures.%s_ms" % f, "ms") for f in HEAVY_FIGURES]
    + [
        ("figures.parallel_wall_s", "s"),
        ("gic.exposure_ms", "ms"),
        ("fm.compiles", "count"),
        ("trace.coverage_pct", "%"),
        ("trace.overhead_pct", "%"),
    ]
)


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build -----------------------------------------------------------------


def build():
    for need in ("dune-project", os.path.join("bin", "solarstorm.ml"), "lib"):
        if not os.path.exists(need):
            raise BenchError("not a solarstorm source checkout: %s missing" % need)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD, "--cache=disabled",
           "./bin/solarstorm.exe", "./perfbench/pb.exe"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


def work_dir(name):
    """Scratch space for one run inside the build directory; main() removes it."""
    d = os.path.join(BUILD, "perfbench", "%s-%d" % (name, os.getpid()))
    os.makedirs(d, exist_ok=True)
    return d


# --- small statistics -------------------------------------------------------


def pct(sorted_vals, p):
    """Linear-interpolated percentile of an already sorted list."""
    if not sorted_vals:
        return 0.0
    k = (len(sorted_vals) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def windowed_pct(values, p):
    """Split time-ordered samples into consecutive windows just large
    enough to leave ten samples beyond the p-quantile (20 for a median,
    1000 for a p99), take the quantile of each, return the median across
    windows.  A few seconds of interference from outside the program then
    move the result far less than they move one pooled quantile."""
    min_n = math.ceil(10 / (1 - p))
    k = max(1, len(values) // min_n)
    size = len(values) / k
    return statistics.median(pct(sorted(values[int(i * size):int((i + 1) * size)]), p) for i in range(k))


# --- a live server ------------------------------------------------------------


class Server:
    """A fresh `solarstorm serve --workers NPROC` on an ephemeral port."""

    def __init__(self, log_path=None):
        args = [SOLAR, "serve", "--port", "0", "--workers", str(NPROC)]
        if log_path:
            args += ["--log", log_path]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        m = re.search(r"http://[0-9.]+:(\d+) ", line)
        if not m:
            self.stop()
            raise BenchError("serve did not start: %r" % line)
        self.port = int(m.group(1))
        deadline = time.perf_counter() + 30
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("serve never became healthy")
            time.sleep(0.005)

    def request(self, method, path, body=None):
        # One connection per control request: the server closes keep-alive
        # connections idle for 30 s, longer than a timed phase may last.
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            r = conn.getresponse()
            return r.status, r.read()
        finally:
            conn.close()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body):
        return self.request("POST", path, body)

    def metrics(self):
        status, data = self.get("/metrics")
        if status != 200:
            raise BenchError("/metrics returned %d" % status)
        out = {}
        for line in data.decode().splitlines():
            if line.startswith("#") or "{" in line:
                continue
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
        return out

    def statusz(self):
        return json.loads(self.get("/statusz")[1])

    def rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmRSS")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def boot_primed(prime_bodies, log_path=None):
    """Spawn a server, wait for /healthz, replay the priming requests.
    Returns (server, CPU s the server used from exec to primed, wall s
    from spawn to primed, share of the VM's CPU time stolen meanwhile)."""
    c0 = cpu_ticks()
    srv = Server(log_path)
    try:
        for body in prime_bodies:
            status, _ = srv.post("/simulate", body)
            if status != 200:
                raise BenchError("priming request failed with %d: %s" % (status, body))
        c1 = cpu_ticks()
        return srv, task_cpu(srv.proc.pid), time.perf_counter() - srv.t_spawn, steal_pct(c0, c1)
    except Exception:
        srv.stop()
        raise


def setup_servers(prime_bodies, env, log_path=None):
    """SETUP_BOOTS fresh boots; keeps the last one.  Returns (server,
    set-up CPU s): the median over the boots in which the host stole no
    more than in the median boot, for the reason calm_cpu gives.  The
    median wall set-up over all boots goes into env."""
    boots = []
    srv = None
    for i in range(SETUP_BOOTS):
        if srv is not None:
            srv.stop()
        srv, cpu, wall, steal = boot_primed(prime_bodies, log_path if i == SETUP_BOOTS - 1 else None)
        boots.append((cpu, wall, steal))
    cut = statistics.median(b[2] for b in boots)
    env["setup_wall_s"] = statistics.median(b[1] for b in boots)
    return srv, statistics.median(b[0] for b in boots if b[2] <= cut)


# --- workload inputs (all derived from --seed) --------------------------------


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


HOT_MODELS = ["s1", "s2", "s1-geomag", "s2-geomag", 0.005, 0.01, 0.02, 0.05]


def hot_bodies():
    """32 keys: 2 networks x 8 models x 2 spacings, 20 trials each."""
    return [dumps({"network": n, "model": m, "trials": 20, "spacing_km": s})
            for n in ("submarine", "intertubes") for m in HOT_MODELS for s in (100, 150)]


def churn_inputs(name, seed, seconds):
    """CHURN_RATE x seconds requests: 80% replays of the 32 hot keys, 15%
    warm misses (a never-seen uniform model on the default dataset, 100
    trials: a plan compile and the trials) and 5% cold requests (a
    never-seen dataset seed, half on submarine and half on intertubes: a
    dataset build, a compile and 20 trials).  The counts are exact and
    the seed picks the order, the hot keys, the models and the dataset
    seeds, so every seed asks for the same work."""
    rng = random.Random("%s:%d" % (name, seed))
    total = max(20, round(CHURN_RATE * seconds))
    n_cold = round(0.05 * total)
    n_warm = round(0.15 * total)
    hot = hot_bodies()
    # (k + 0.5) / 1e6 is never one of the hot keys' round probabilities.
    warm = [dumps({"model": (k + 0.5) / 1e6, "trials": 100}) for k in rng.sample(range(1000, 100_000), n_warm)]
    cold = [dumps({"network": ("submarine", "intertubes")[i % 2], "seed": s, "trials": 20})
            for i, s in enumerate(rng.sample(range(100_000, 1_000_000_000), n_cold))]
    bodies = hot + warm + cold
    seq = ([rng.randrange(len(hot)) for _ in range(total - n_warm - n_cold)]
           + list(range(len(hot), len(bodies))))
    rng.shuffle(seq)
    kind = ["hot"] * len(hot) + ["warm"] * n_warm + ["cold"] * n_cold
    return {"bodies": bodies, "sequence": seq, "kind": kind, "prime": hot}


def sweep_inputs(name, seed):
    """One grid of each shape.  The seed picks the ITU scales (normalized
    out of submarine plan keys, so they change the bytes, not the work)
    and the trial-heavy grid's dataset seeds.  Models and trial counts are
    fixed: a model's failure rate sets the cost of its trials and the
    first batch's size sets the time to the first row, and every seed must
    ask for the same work."""
    rng = random.Random("%s:%d" % (name, seed))
    seeds = rng.sample(range(1000, 1_000_000), 4)
    # Dedup-heavy: 4 models x 4 itu scales x 4 duplicate trial counts on the
    # default network = 64 cells, 4 plans, 4 batches of 100 trials.
    dedup = {"model": [0.005, 0.01, 0.02, 0.03],
             "itu_scale": sorted(rng.sample([round(0.05 * i, 2) for i in range(1, 21)], 4)),
             "trials": [100, 100, 100, 100]}
    # Trial-heavy: 4 models x 4 seeds x trials 100..400 = 64 cells, 16 plans,
    # 64 batches, 16 000 trials.
    heavy = {"model": ["s1", "s2", "s1-geomag", "s2-geomag"], "seed": seeds, "trials": [100, 200, 300, 400]}
    grids = [dumps(dedup), dumps(heavy)]
    prime = [dumps({"trials": 1})] + [dumps({"seed": s, "trials": 1}) for s in seeds]
    return {"bodies": grids, "prime": prime}


# --- the generator --------------------------------------------------------------


def drive(srv, path, wd, bodies_file, seq_file, seconds, conns, depth=1, whole_cycles=False, rate=None, get=False,
          windows=None):
    """Closed loop for --seconds (then on to the end of the sequence, with
    whole_cycles), or with a rate an open loop sending the sequence once.
    Returns the file of per-request records, the median of the server's
    resident set (MB), sampled every RSS_EVERY_S meanwhile, and with
    windows ("--window-s", S) or ("--window-ops", N) the file of the
    generator's CPU samples."""
    out = os.path.join(wd, "drive.txt")
    args = [PB, "drive", "--port", str(srv.port), "--path", path, "--out", out, "--bodies", bodies_file,
            "--sequence", seq_file, "--seconds", "%g" % seconds, "--conns", str(conns), "--depth", str(depth)]
    if whole_cycles:
        args.append("--whole-cycles")
    if rate:
        args += ["--rate", "%g" % rate]
    if get:
        args.append("--get")
    win_file = None
    if windows:
        win_file = os.path.join(wd, "windows.txt")
        args += ["--cpu-pid", str(srv.proc.pid), "--windows", win_file, windows[0], "%g" % windows[1]]
    err = os.path.join(wd, "drive.err")
    rss = []
    with open(err, "w") as ef:
        p = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=ef)
        try:
            deadline = time.perf_counter() + PROC_TIMEOUT_S
            while p.poll() is None:
                if time.perf_counter() > deadline:
                    raise BenchError("pb drive timed out")
                rss.append(srv.rss_mb())
                time.sleep(RSS_EVERY_S)
        finally:
            if p.poll() is None:
                p.kill()
            p.wait()
    if p.returncode != 0:
        with open(err) as ef:
            raise BenchError("pb drive failed: " + ef.read()[-2000:])
    return out, statistics.median(rss or [srv.rss_mb()]), win_file


def cpu_samples(win_file):
    """The generator's samples: [t s, completed, server cpu ns, steal ticks, total ticks, server rss kB]."""
    with open(win_file) as f:
        return [[float(x) for x in line.split()] for line in f]


def rss_after(win_file, requests):
    """The server's resident set (MB) once it had answered `requests`
    requests, interpolated between the two samples around that count, or
    at the last sample if it never got there.  Its heap grows with the
    requests served until the GC settles (after about 500 000 cached
    requests), so a count, not a time, makes it comparable between a fast
    and a slow run.  Returns (MB, requests it stands for)."""
    samples = cpu_samples(win_file)
    for a, b in zip(samples, samples[1:]):
        if a[1] < requests <= b[1]:
            f = (requests - a[1]) / (b[1] - a[1])
            return (a[5] + f * (b[5] - a[5])) / 1024.0, requests
    return samples[-1][5] / 1024.0, int(samples[-1][1])


def calm_cpu(win_file):
    """Server CPU seconds and requests over the windows in which the host
    stole least.  When the hypervisor deschedules one of the VM's vCPUs,
    the server's domains that keep running spin while they wait for the
    descheduled one (at the runtime's stop-the-world barriers), so stolen
    time inflates the CPU the server uses for the same work.  Windows are
    the spans between consecutive samples; the kept ones are those whose
    steal share is at most the lower quartile of all windows' shares.
    Returns (cpu s, requests, windows kept, windows, mean steal % kept)."""
    samples = cpu_samples(win_file)
    wins = []
    for a, b in zip(samples, samples[1:]):
        ops = b[1] - a[1]
        if ops > 0:
            wins.append((b[2] - a[2], ops, (b[3] - a[3]) / max(1.0, b[4] - a[4])))
    if not wins:
        raise BenchError("no CPU window completed a request")
    cut = sorted(w[2] for w in wins)[(len(wins) - 1) // 4]
    kept = [w for w in wins if w[2] <= cut]
    return (sum(w[0] for w in kept) / 1e9, sum(w[1] for w in kept), len(kept), len(wins),
            100 * statistics.mean(w[2] for w in kept))


def records(path):
    """(body, send, first, last, status, trace, digest, late) per request
    in the order the requests completed or failed, times in ms from the
    generator's start; -1 ms = never seen.  send is the due time in an
    open loop, and late how far behind it the request went out."""
    with open(path) as f:
        for line in f:
            b, send, first, last, status, trace, digest, late = line.split()
            yield (int(b), int(send) / 1e3, int(first) / 1e3, int(last) / 1e3, int(status), trace, digest,
                   int(late) / 1e3)


def write_lines(path, lines):
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


def expect(kind, bodies, wd):
    src = os.path.join(wd, "expect-in.txt")
    out = os.path.join(wd, "expect-out.txt")
    write_lines(src, bodies)
    r = subprocess.run([PB, "expect", "--kind", kind, "--bodies", src, "--out", out],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=PROC_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("pb expect failed: " + r.stderr[-2000:])
    with open(out) as f:
        return [line.split() for line in f]


def replay(kind, wd, **files):
    """Traced in-process replay; prints the stage ledger to stderr and
    returns the replay's per-layer values."""
    out = os.path.join(wd, "replay-%s.txt" % kind)
    ledger = os.path.join(wd, "ledger-%s.txt" % kind)
    args = [PB, "replay", "--kind", kind, "--out", out, "--ledger", ledger]
    for k, v in files.items():
        args += ["--" + k, v]
    r = subprocess.run(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                       timeout=PROC_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("pb replay failed: " + r.stderr[-2000:])
    vals = {}
    with open(out) as f:
        for line in f:
            k, v = line.split()
            vals[k] = float(v)
    wall = vals["replay.wall_ns"]
    log("stage ledger (%s replay, traced pass %.1f ms; self time = span minus its children):" % (kind, wall / 1e6))
    log("  %-32s %9s %12s %12s %7s" % ("span", "calls", "incl ms", "self ms", "self%"))
    with open(ledger) as f:
        for line in f:
            name, calls, incl, self_ns = line.split()
            log("  %-32s %9s %12.3f %12.3f %6.1f%%" % (name, calls, float(incl) / 1e6, float(self_ns) / 1e6,
                                                     100 * float(self_ns) / wall))
    return vals


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat: the share of time the
    hypervisor ran something else is recorded with every result."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def task_cpu(pid):
    """CPU seconds used so far by every thread of a live process, from
    /proc/PID/task/*/schedstat.  The kernel counts a thread's CPU time
    net of the time the hypervisor gave to other guests (steal), and
    leaves out the time it waited for a CPU."""
    ns = 0
    base = "/proc/%d/task" % pid
    for tid in os.listdir(base):
        try:
            with open(os.path.join(base, tid, "schedstat")) as f:
                ns += int(f.read().split()[0])
        except OSError:
            continue  # a thread that ended between listdir and open
    return ns / 1e9


def steal_pct(t0, t1):
    return 100.0 * (t1[0] - t0[0]) / max(1, t1[1] - t0[1])


def delta(after, before, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def access_log(path, wanted):
    """trace id -> server-side dur_ms, from the --log JSONL, for the ids in wanted."""
    durs = {}
    with open(path) as f:
        for line in f:
            try:
                e = json.loads(line)
            except ValueError:
                continue
            if e.get("event") == "http.access" and e.get("trace") in wanted:
                durs[e["trace"]] = e["dur_ms"]
    return durs


def busy_ms(statusz):
    return sum(w["busy_ms"] for w in statusz.get("workers", []))


def live_counters(m1, m0, ops):
    """Per-layer values read from /metrics deltas over the timed phase."""
    return {
        "service.rejected": delta(m1, m0, "server_rejected_busy"),
        "plan.compiles": delta(m1, m0, "plan_compiles"),
        "trials.count": delta(m1, m0, "plan_trials"),
        "exec.parallel_sections": delta(m1, m0, "exec_parallel_sections"),
        "gc.minor_per_op": delta(m1, m0, "gc_minor_collections") / ops,
        "gc.major_per_op": delta(m1, m0, "gc_major_collections") / ops,
        "gc.promoted_words_per_op": delta(m1, m0, "gc_promoted_words") / ops,
    }


def service_waits(log_path, lat_by_trace):
    """Client latency minus the access log's dur_ms, per X-Trace-Id."""
    durs = access_log(log_path, lat_by_trace)
    waits = sorted(lat - durs[t] for t, lat in lat_by_trace.items() if t in durs)
    missing = len(lat_by_trace) - len(waits)
    return waits, ["%d requests missing from the access log" % missing] if missing else []


# --- simulate-hot -----------------------------------------------------------------


def run_hot(name, seed, seconds, trace):
    wd = work_dir(name)
    bodies = hot_bodies()
    rng = random.Random("%s:%d" % (name, seed))
    bodies_file = os.path.join(wd, "bodies.txt")
    seq_file = os.path.join(wd, "sequence.txt")
    write_lines(bodies_file, bodies)
    write_lines(seq_file, [str(rng.randrange(len(bodies))) for _ in range(HOT_SEQUENCE)])
    log_path = os.path.join(wd, "access.jsonl") if trace else None

    env = {}
    srv, setup_s = setup_servers(bodies, env, log_path)
    try:
        m0 = srv.metrics()
        s0 = srv.statusz()
        c0 = cpu_ticks()
        k0 = task_cpu(srv.proc.pid)
        t0 = time.perf_counter()
        drive_out, rss, win_file = drive(srv, "/simulate", wd, bodies_file, seq_file, seconds, NPROC, HOT_DEPTH,
                                         windows=("--window-s", HOT_WINDOW_S))
        wall = time.perf_counter() - t0
        cpu_s = task_cpu(srv.proc.pid) - k0
        steal = steal_pct(c0, cpu_ticks())
        m1 = srv.metrics()
        s1 = srv.statusz()
    finally:
        srv.stop()

    # Correctness: every response is 2xx and its body bytes equal an
    # in-process dispatch of the same request.
    want = []
    for body, (status, digest) in zip(bodies, expect("simulate", bodies, wd)):
        if status != "200":
            raise BenchError("reference dispatch failed for %s" % body)
        want.append(digest)
    lat, ttfb = array.array("d"), array.array("d")
    attempted = failed = 0
    t_first, t_last = math.inf, 0.0
    traced = {}  # the first TRACE_REQUESTS responses: trace id -> latency
    traced_bodies = []
    for b, send, first, last, status, tr, digest, _ in records(drive_out):
        attempted += 1
        if not (200 <= status < 300 and digest == want[b]):
            failed += 1
            continue
        lat.append(last - send)
        ttfb.append(first - send)
        t_first, t_last = min(t_first, send), max(t_last, last)
        if trace and len(traced_bodies) < TRACE_REQUESTS:
            traced[tr] = last - send
            traced_bodies.append(b)
    ok = attempted - failed
    if not ok:
        raise BenchError("no request succeeded")

    # Exact counts over the timed phase: every request is a result-cache
    # hit, and none reaches a plan or a trial.
    problems = []
    for metric, want_delta in (("server_cache_hits", attempted), ("server_cache_misses", 0),
                               ("plan_compiles", 0), ("plan_trials", 0)):
        got = delta(m1, m0, metric)
        if got != want_delta:
            problems.append("%s moved by %d, want %d" % (metric, got, want_delta))

    env.update({"nproc": NPROC, "workers": NPROC, "conns": NPROC, "depth": HOT_DEPTH,
                "ocaml": s1["build"]["ocaml"], "steal_pct": steal, "cpu_util_pct": 100 * cpu_s / wall,
                "wall": {"p50_ms": windowed_pct(lat, 0.5), "p99_ms": windowed_pct(lat, 0.99),
                         "ttfb_ms": windowed_pct(ttfb, 0.5), "throughput_per_s": ok / ((t_last - t_first) / 1e3)}})
    if not trace:
        calm_s, calm_ops, kept, n_wins, calm_steal = calm_cpu(win_file)
        env.update({"cpu_windows_kept": "%d/%d" % (kept, n_wins), "cpu_windows_steal_pct": calm_steal,
                    "whole_run_cpu_ms_per_op": 1e3 * cpu_s / attempted})
        rss_at, rss_n = rss_after(win_file, HOT_RSS_AFTER)
        env.update({"rss_after_requests": rss_n, "rss_median_mb": rss})
        metrics = {"setup_s": setup_s, "cpu_ms_per_op": 1e3 * calm_s / calm_ops, "rss_mb": rss_at}
        return finish(env, problems, attempted, failed, metrics, END_TO_END)

    # Traced run: the per-layer ledger.
    waits, missing = service_waits(log_path, traced)
    problems += missing
    replay_seq = os.path.join(wd, "replay-sequence.txt")
    digests_file = os.path.join(wd, "replay-digests.txt")
    write_lines(replay_seq, [str(b) for b in traced_bodies])
    rep = replay("simulate", wd, bodies=bodies_file, prime=bodies_file, sequence=replay_seq, digests=digests_file)
    with open(digests_file) as f:
        mismatch = sum(1 for b, d in zip(traced_bodies, f.read().split()) if d != want[b])
    if mismatch:
        problems.append("%d replayed responses differ from the live server's" % mismatch)
    hits, misses = delta(m1, m0, "server_cache_hits"), delta(m1, m0, "server_cache_misses")
    metrics = dict(rep)
    metrics.update(live_counters(m1, m0, attempted))
    metrics.update({
        "service.wait_p50_ms": pct(waits, 0.5),
        "service.wait_p99_ms": pct(waits, 0.99),
        "service.busy_pct": 100.0 * (busy_ms(s1) - busy_ms(s0)) / (NPROC * wall * 1e3),
        "cache.hit_ratio": hits / max(1.0, hits + misses),
        "cache.evictions": delta(m1, m0, "server_cache_evictions"),
    })
    return finish(env, problems, attempted, failed, metrics, PER_LAYER)


# --- simulate-churn ---------------------------------------------------------------


def run_churn(name, seed, seconds, trace):
    wd = work_dir(name)
    inp = churn_inputs(name, seed, seconds)
    bodies, seq, kind = inp["bodies"], inp["sequence"], inp["kind"]
    bodies_file = os.path.join(wd, "bodies.txt")
    seq_file = os.path.join(wd, "sequence.txt")
    write_lines(bodies_file, bodies)
    write_lines(seq_file, [str(b) for b in seq])
    log_path = os.path.join(wd, "access.jsonl") if trace else None

    env = {}
    srv, setup_s = setup_servers(inp["prime"], env, log_path)
    try:
        m0 = srv.metrics()
        s0 = srv.statusz()
        c0 = cpu_ticks()
        k0 = task_cpu(srv.proc.pid)
        t0 = time.perf_counter()
        drive_out, rss, _ = drive(srv, "/simulate", wd, bodies_file, seq_file, len(seq) / CHURN_RATE, NPROC,
                                  rate=CHURN_RATE)
        wall = time.perf_counter() - t0
        cpu_s = task_cpu(srv.proc.pid) - k0
        steal = steal_pct(c0, cpu_ticks())
        m1 = srv.metrics()
        s1 = srv.statusz()
    finally:
        srv.stop()

    # Correctness: every response equals an in-process dispatch of the
    # same body (the cold ones build their dataset there too).
    want = [digest for _, digest in expect("simulate", bodies, wd)]
    lat = {"hot": [], "warm": [], "cold": []}
    late = []
    attempted = failed = 0
    traced = {}
    for b, send, first, last, status, tr, digest, lt in records(drive_out):
        attempted += 1
        late.append(lt)
        if not (200 <= status < 300 and digest == want[b]):
            failed += 1
            continue
        lat[kind[b]].append(last - send)
        traced[tr] = last - send
    if attempted == failed:
        raise BenchError("no request succeeded")

    # Exact counts over the timed phase.  Every warm and cold request
    # misses the result cache, compiles one plan and runs its trials.  The
    # inserts evict entries, hot keys among them, so a hot replay may miss
    # too: its plan is still memoized, so it reruns only its 20 trials.
    sent = {k: sum(1 for b in seq if kind[b] == k) for k in lat}
    hits, misses = delta(m1, m0, "server_cache_hits"), delta(m1, m0, "server_cache_misses")
    hot_misses = misses - sent["warm"] - sent["cold"]
    problems = []
    if hits + misses != attempted:
        problems.append("%d cache hits + %d misses for %d requests" % (hits, misses, attempted))
    if not 0 <= hot_misses <= delta(m1, m0, "server_cache_evictions"):
        problems.append("%d hot replays missed, with %d evictions" % (hot_misses, delta(m1, m0, "server_cache_evictions")))
    for metric, want_delta in (("plan_compiles", sent["warm"] + sent["cold"]),
                               ("plan_trials", 100 * sent["warm"] + 20 * (sent["cold"] + hot_misses))):
        got = delta(m1, m0, metric)
        if got != want_delta:
            problems.append("%s moved by %d, want %d" % (metric, got, want_delta))

    every = sorted(v for vs in lat.values() for v in vs)
    late_p99 = pct(sorted(late), 0.99)
    env.update({"nproc": NPROC, "workers": NPROC, "conns": NPROC, "rate_per_s": CHURN_RATE,
                "ocaml": s1["build"]["ocaml"], "steal_pct": steal, "cpu_util_pct": 100 * cpu_s / wall,
                "requests": sent, "hot_misses": hot_misses,
                "wall": {"p50_ms": pct(every, 0.5), "p99_ms": pct(every, 0.99),
                         "limit_p99_ms": CHURN_LIMIT_MS, "late_p99_ms": late_p99,
                         "schedule_kept": late_p99 <= LATE_SHARE * CHURN_LIMIT_MS}})
    if not trace:
        metrics = {"setup_s": setup_s, "cpu_ms_per_op": 1e3 * cpu_s / attempted, "rss_mb": rss}
        return finish(env, problems, attempted, failed, metrics, END_TO_END)

    # Traced run: the per-layer ledger, over the whole sequence.
    waits, missing = service_waits(log_path, traced)
    problems += missing
    cold_file = os.path.join(wd, "cold.txt")
    prime_file = os.path.join(wd, "prime.txt")
    digests_file = os.path.join(wd, "replay-digests.txt")
    write_lines(cold_file, [str(b) for b in range(len(bodies)) if kind[b] == "cold"])
    write_lines(prime_file, inp["prime"])
    rep = replay("simulate", wd, bodies=bodies_file, prime=prime_file, build=cold_file, sequence=seq_file,
                 digests=digests_file)
    with open(digests_file) as f:
        mismatch = sum(1 for b, d in zip(seq, f.read().split()) if d != want[b])
    if mismatch:
        problems.append("%d replayed responses differ from the live server's" % mismatch)
    if rep["dataset.builds"] != sent["cold"]:
        problems.append("replay built %d datasets for %d cold requests" % (rep["dataset.builds"], sent["cold"]))
    metrics = dict(rep)
    metrics.update(live_counters(m1, m0, attempted))
    metrics.update({
        "service.wait_p50_ms": pct(waits, 0.5),
        "service.wait_p99_ms": pct(waits, 0.99),
        "service.busy_pct": 100.0 * (busy_ms(s1) - busy_ms(s0)) / (NPROC * wall * 1e3),
        "cache.hit_ratio": hits / max(1.0, hits + misses),
        "cache.evictions": delta(m1, m0, "server_cache_evictions"),
        "churn.hot_p99_ms": pct(sorted(lat["hot"]), 0.99),
        "churn.warm_p99_ms": pct(sorted(lat["warm"]), 0.99),
        "churn.cold_p50_ms": pct(sorted(lat["cold"]), 0.5),
        "gen.late_p99_ms": late_p99,
    })
    return finish(env, problems, attempted, failed, metrics, PER_LAYER)


# --- sweep workload -----------------------------------------------------------------


def run_sweep(name, seed, seconds, trace):
    wd = work_dir(name)
    inp = sweep_inputs(name, seed)
    bodies = inp["bodies"]
    bodies_file = os.path.join(wd, "bodies.txt")
    seq_file = os.path.join(wd, "sequence.txt")
    write_lines(bodies_file, bodies)
    write_lines(seq_file, [str(i) for i in range(len(bodies))])
    log_path = os.path.join(wd, "access.jsonl") if trace else None
    env = {}
    srv, setup_s = setup_servers(inp["prime"], env, log_path)
    try:
        m0 = srv.metrics()
        s0 = srv.statusz()
        c0 = cpu_ticks()
        k0 = task_cpu(srv.proc.pid)
        t0 = time.perf_counter()
        drive_out, rss, win_file = drive(srv, "/sweep", wd, bodies_file, seq_file, seconds, 1, 1, whole_cycles=True,
                                         windows=("--window-ops", len(bodies)))
        wall = time.perf_counter() - t0
        cpu_s = task_cpu(srv.proc.pid) - k0
        steal = steal_pct(c0, cpu_ticks())
        m1 = srv.metrics()
        s1 = srv.statusz()
    finally:
        srv.stop()

    exp = expect("sweep", bodies, wd)  # "200 md5 cells plans batches" per grid
    recs = []
    for b, send, first, last, status, tr, digest, _ in records(drive_out):
        e = exp[b]
        recs.append({"body": b, "ok": status == 200 and digest == e[1], "send": send, "last": last,
                     "lat": last - send, "ttfb": first - send, "trace": tr,
                     "shape": "dedup" if int(e[4]) < 64 else "heavy"})
    attempted = len(recs)
    failed = sum(1 for r in recs if not r["ok"])
    problems = []
    want_cells = sum(int(exp[r["body"]][2]) for r in recs)
    want_plans = sum(int(exp[r["body"]][3]) for r in recs)
    want_batches = sum(int(exp[r["body"]][4]) for r in recs)
    for metric, want in (("server_sweep_cells", want_cells), ("server_sweep_plans_compiled", want_plans),
                         ("sweep_batches", want_batches), ("server_sweep_rows_streamed", want_cells)):
        got = delta(m1, m0, metric)
        if got != want:
            problems.append("%s moved by %d, want %d" % (metric, got, want))
    ok = [r for r in recs if r["ok"]]
    if not ok:
        raise BenchError("no request succeeded")
    heavy = sorted(r["lat"] for r in ok if r["shape"] == "heavy")
    dedup = sorted(r["lat"] for r in ok if r["shape"] == "dedup")
    lat = sorted(r["lat"] for r in ok)
    ttfb = sorted(r["ttfb"] for r in ok)
    # Cells of the correct responses per second, from the first send to the last row.
    ok_cells = sum(int(exp[r["body"]][2]) for r in ok)
    span_s = (max(r["last"] for r in ok) - min(r["send"] for r in ok)) / 1e3
    env.update({"nproc": NPROC, "workers": NPROC, "ocaml": s1["build"]["ocaml"], "steal_pct": steal,
                "cpu_util_pct": 100 * cpu_s / wall, "requests": attempted, "heavy": len(heavy), "dedup": len(dedup),
                "wall": {"heavy_p50_ms": pct(heavy, 0.5), "p90_ms": pct(lat, 0.9), "ttfb_ms": pct(ttfb, 0.5),
                         "cells_per_s": ok_cells / span_s}})
    if not trace:
        calm_s, calm_ops, kept, n_wins, calm_steal = calm_cpu(win_file)
        env.update({"cpu_windows_kept": "%d/%d" % (kept, n_wins), "cpu_windows_steal_pct": calm_steal,
                    "whole_run_cpu_ms_per_op": 1e3 * cpu_s / attempted})
        metrics = {"setup_s": setup_s, "cpu_ms_per_op": 1e3 * calm_s / calm_ops, "rss_mb": rss}
        return finish(env, problems, attempted, failed, metrics, END_TO_END)

    waits, missing = service_waits(log_path, {r["trace"]: r["lat"] for r in ok})
    problems += missing
    seq = [r["body"] for r in recs][:8]
    replay_seq = os.path.join(wd, "replay-sequence.txt")
    prime_file = os.path.join(wd, "prime.txt")
    digests_file = os.path.join(wd, "replay-digests.txt")
    write_lines(replay_seq, [str(b) for b in seq])
    write_lines(prime_file, inp["prime"])
    rep = replay("sweep", wd, bodies=bodies_file, prime=prime_file, sequence=replay_seq,
                 digests=digests_file, jobs=str(NPROC))
    with open(digests_file) as f:
        rep_digests = f.read().split()
    if any(d != exp[b][1] for b, d in zip(seq, rep_digests)):
        problems.append("replayed sweep rows differ from Sweep.run")
    if rep["dataset.builds"] != len(inp["prime"]):
        problems.append("replay built %d datasets for %d set-up requests" % (rep["dataset.builds"], len(inp["prime"])))
    metrics = dict(rep)
    metrics.update(live_counters(m1, m0, max(1, attempted)))
    metrics.update({
        "service.wait_p50_ms": pct(waits, 0.5),
        "service.wait_p99_ms": pct(waits, 0.99),
        "service.busy_pct": 100.0 * (busy_ms(s1) - busy_ms(s0)) / (NPROC * wall * 1e3),
        "sweep.cells": delta(m1, m0, "server_sweep_cells"),
        "sweep.batches": delta(m1, m0, "sweep_batches"),
        "sweep.plans_compiled": delta(m1, m0, "server_sweep_plans_compiled"),
        "sweep.dedup_p50_ms": pct(dedup, 0.5),
    })
    return finish(env, problems, attempted, failed, metrics, PER_LAYER)


# --- figures workload ------------------------------------------------------------------


def figures_pass(jobs, metrics=None):
    """One fresh `solarstorm figures --jobs N`: (wall s, CPU s, peak RSS MB, stdout bytes, ok)."""
    args = [SOLAR, "figures", "--jobs", str(jobs)] + (["--metrics", metrics] if metrics else [])
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, out, p.returncode == 0


def run_figures(name, seed, seconds, trace):
    # The figures pass has no generated inputs: --seed is recorded but the
    # workload is the CLI's default pass (--jobs 1), checked byte for byte.
    # --jobs nproc runs in the traced run only: on 2 vCPUs its passes
    # spread 27% against 9% at --jobs 1.
    wd = work_dir(name)
    with open(FIG_REF, "rb") as f:
        ref = f.read()
    # Set-up is starting a fresh process: the CPU a `--version` run takes.
    cpus, walls = [], []
    for _ in range(VERSION_SPAWNS):
        t0 = time.perf_counter()
        p = subprocess.Popen([SOLAR, "--version"], stdout=subprocess.DEVNULL)
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        walls.append(time.perf_counter() - t0)
        cpus.append(ru.ru_utime + ru.ru_stime)
        if p.returncode != 0:
            raise BenchError("solarstorm --version exited %d" % p.returncode)
    setup_s = statistics.median(cpus)
    ocaml = subprocess.run([PB, "version"], stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    env = {"nproc": NPROC, "jobs": 1, "ocaml": ocaml, "setup_wall_s": statistics.median(walls)}
    problems = []
    if not trace:
        passes = []
        c0 = cpu_ticks()
        t_end = time.perf_counter() + seconds
        while len(passes) < 2 or time.perf_counter() < t_end:
            passes.append(figures_pass(1))
        env["steal_pct"] = steal_pct(c0, cpu_ticks())
        ok = [p for p in passes if p[4] and p[3] == ref]
        walls = sorted(p[0] for p in passes)
        env["wall"] = {"serial_wall_s": statistics.median(walls), "slowest_s": walls[-1]}
        # The passes do identical work, so the least CPU any of them took
        # is the one least disturbed by other tenants of the host.
        env["wall"]["pass_cpu_s"] = [p[1] for p in passes]
        metrics = {"setup_s": setup_s, "cpu_ms_per_op": 1e3 * min(p[1] for p in passes),
                   "rss_mb": statistics.median(p[2] for p in passes)}
        return finish(env, problems, len(passes), len(passes) - len(ok), metrics, END_TO_END)

    # Both passes run with the program's own --metrics on, so they stay
    # comparable; the parallel one's counters give exec.parallel_sections.
    serial = figures_pass(1, os.path.join(wd, "metrics-serial.txt"))
    par_metrics = os.path.join(wd, "metrics-par.txt")
    par = figures_pass(NPROC, par_metrics)
    counters = {}
    with open(par_metrics) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 3 and parts[1] == "counter":
                counters[parts[0]] = float(parts[2])
    attempted = 2
    failed = sum(1 for p in (serial, par) if not (p[4] and p[3] == ref))
    render = os.path.join(wd, "replay-render.txt")
    rep = replay("figures", wd, render=render)
    with open(render, "rb") as f:
        if f.read() != ref:
            problems.append("replayed figures differ from the reference")
    metrics = dict(rep)
    metrics.update({"figures.parallel_wall_s": par[0], "exec.speedup": serial[0] / par[0],
                    "exec.parallel_sections": counters.get("exec.parallel_sections", 0.0)})
    return finish(env, problems, attempted, failed, metrics, PER_LAYER)


# --- output ---------------------------------------------------------------------------------


def finish(env, problems, attempted, failed, values, catalogue):
    for p in problems:
        log("INVALID: " + p)
    env["problems"] = problems
    print(json.dumps({"env": env}))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in catalogue}
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


RUNNERS = {
    "simulate-hot": run_hot,
    "simulate-churn": run_churn,
    "sweep-grid": run_sweep,
    "figures": run_figures,
}


# --- generator self-test ---------------------------------------------------


def selftest(rate, seconds):
    """Open loop of GET /healthz at `rate` for `seconds` against a fresh
    server: shows whether the generator keeps its schedule on the host it runs on
    at that rate.  The schedule holds when the p99 lateness is at most
    LATE_SHARE of the hot latency limit."""
    wd = work_dir("selftest")
    bodies_file = os.path.join(wd, "bodies.txt")
    seq_file = os.path.join(wd, "sequence.txt")
    n = max(1, round(rate * seconds))
    write_lines(bodies_file, ["-"])
    write_lines(seq_file, ["0"] * n)
    srv = Server()
    try:
        drive_out, _, _ = drive(srv, "/healthz", wd, bodies_file, seq_file, n / rate, NPROC, rate=rate, get=True)
    finally:
        srv.stop()
    recs = list(records(drive_out))
    late = sorted(r[7] for r in recs)
    failed = sum(1 for r in recs if r[4] != 200)
    kept = pct(late, 0.99) <= LATE_SHARE * HOT_LIMIT_MS
    print(json.dumps({"selftest": {"rate_per_s": rate, "conns": NPROC, "requests": len(recs), "failed": failed,
                                   "late_p50_ms": pct(late, 0.5), "late_p99_ms": pct(late, 0.99),
                                   "late_max_ms": late[-1], "limit_ms": LATE_SHARE * HOT_LIMIT_MS,
                                   "schedule_kept": kept}}))
    return 0 if kept and not failed else 1


# --- stability mode ------------------------------------------------------


def stability(workloads, k, seconds, seed0):
    """Run each workload K times in fresh processes and print each
    metric's median, quartiles and spread (IQR / median)."""
    report = {}
    for w in workloads:
        vals = {}
        for i in range(k):
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                "--seed", str(seed0 + i), "--seconds", str(seconds), "--trace", "0"],
                               stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                raise BenchError("%s seed %d exited %d" % (w, seed0 + i, r.returncode))
            lines = r.stdout.strip().splitlines()
            res, env = json.loads(lines[-1]), json.loads(lines[-2])["env"]
            log("%s seed %d: %s, host steal %.1f%%" % (w, seed0 + i, "correct" if res["correct"] else "INCORRECT",
                                                     env.get("steal_pct", 0.0)))
            for m, v in res["metrics"].items():
                vals.setdefault(m, []).append(v["value"])
            # The wall-clock values the run prints beside its metrics (not gated).
            for m, v in list(env.get("wall", {}).items()) + [("setup_wall_s", env.get("setup_wall_s"))]:
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    vals.setdefault("wall." + m if m != "setup_wall_s" else "wall.setup_s", []).append(v)
        report[w] = {}
        for m, vs in vals.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            report[w][m] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else float("inf"), "values": vs}
            print("%-16s %-22s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.1f%%"
                  % (w, m, med, q1, q3, 100 * report[w][m]["spread"]))
    print(json.dumps(report))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(RUNNERS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stability", type=int, metavar="K")
    ap.add_argument("--selftest", type=float, metavar="RATE", nargs="?", const=8000.0,
                    help="open-loop GET /healthz at RATE/s (default 8000) to check the generator's schedule")
    a = ap.parse_args()
    try:
        build()
        if a.selftest is not None:
            return selftest(a.selftest, a.seconds)
        if a.workload is None:
            ap.error("--workload is required")
        if a.stability is not None:
            if a.stability < 2:
                ap.error("--stability needs K >= 2 runs")
            ws = sorted(RUNNERS) if a.workload == "all" else [a.workload]
            stability(ws, a.stability, a.seconds, a.seed)
            return 0
        if a.workload == "all":
            ap.error("--workload all needs --stability")
        result = RUNNERS[a.workload](a.workload, a.seed, a.seconds, a.trace == 1)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(os.path.join(BUILD, "perfbench"), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
