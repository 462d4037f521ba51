"""The three workloads, end to end (`--trace 0`) and traced (`--trace 1`).

End to end, each pass runs the release `compstat` binary as a user
would; set-up, checks and clean-up sit outside the timed span. The
traced run makes one untraced pass the same way, then replays the
workload in `perfbench-tracer`, which times calls into the crates.
"""

import json
import os
import select
import shutil
import signal
import socket
import subprocess
import threading
import time

import frames as serve_frames
import harness

# The experiments whose 256-bit oracle sweeps use the cache. Running
# them cold is `oracle-cold`; running them once primes the cache for
# `registry-warm` (fig11 reuses fig09's corpus entry).
ORACLE_EXPERIMENTS = ["fig09", "fig10", "fig11", "hdr"]
REGISTRY_SIZE = 18

# Frames per serve-mixed pass. At the default size a pass takes about
# a second on two cores; quick is for the smoke run.
SERVE_FRAMES = {"quick": 300, "default": 2000}

# Set-ups timed per run for `setup_s`, whose median is reported. A
# compstat or server start-up takes a few milliseconds, so the median of
# 20 is steady; priming a cache takes about half a second, so
# registry-warm primes three and its passes rotate through them.
SETUP_REPEATS = 20
PRIMES = 3

# Scales each workload accepts; the first is its default.
SCALES = {
    "oracle-cold": ("default", "quick"),
    "registry-warm": ("quick",),
    "serve-mixed": ("default", "quick"),
}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


class Run:
    """Settings and paths of one benchmark run."""

    def __init__(self, root, work, compstat, tracer, workload, seed, seconds, scale, deadline, digests):
        self.root = root
        self.work = work
        self.compstat = str(compstat)
        self.tracer = str(tracer)
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.deadline = deadline
        self.digests = digests
        self.threads = harness.nproc()
        self.tally = Tally()
        # Per-pass samples behind the end-to-end medians, kept in the
        # result document.
        self.samples = {}

    def env(self, cache_dir):
        """The child environment: a private cache, nothing inherited that
        changes what compstat does."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("COMPSTAT_")}
        env["COMPSTAT_CACHE_DIR"] = str(cache_dir)
        return env

    def fresh(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def compstat_run(self, names, cache, out, log_name="run"):
        args = [self.compstat, "run", *names, "--scale", self.scale, "--threads", str(self.threads), "--out", str(out)]
        with open(self.work / (log_name + ".log"), "wb") as log:
            return harness.run(args, self.env(cache), self.deadline, stderr=log, stdout=log)


def cache_counts(cache_dir):
    """The last run's counters from the cache directory's stats.json."""
    try:
        doc = json.loads((cache_dir / "stats.json").read_text())
        return {k: int(doc["last_run"][k]) for k in ("hits", "misses", "writes", "errors")}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def digests_match(run, out, names):
    want = run.digests.get(run.scale, {})
    files = [n + ".json" for n in names] + ["index.json"]
    return bool(want) and all(
        (out / f).is_file() and harness.sha256_file(out / f) == want.get(f) for f in files
    )


def goldens_match(run, out):
    with open(run.work / "diff.log", "wb") as log:
        child = harness.run(
            [run.compstat, "diff", str(run.root / "goldens" / run.scale), str(out)],
            run.env(run.work / "diff-cache"),
            run.deadline,
            stdout=log,
            stderr=log,
        )
    return child.ok


def same_files(a, b, names):
    return all((a / n).is_file() and (b / n).read_bytes() == (a / n).read_bytes() for n in names)


# ---------------------------------------------------------------------
# oracle-cold
# ---------------------------------------------------------------------


def cache_open_setups(run):
    """An oracle-cold pass has no set-up of its own: its cache starts
    empty. So `setup_s` times what precedes its first oracle call,
    compstat's start-up on a fresh cache (`compstat cache stats`), which
    must report no entries."""
    setups = []
    for i in range(SETUP_REPEATS):
        d = run.fresh("setup")
        t = time.perf_counter()
        with open(d / "stats.txt", "wb") as f:
            probe = harness.run([run.compstat, "cache", "stats"], run.env(d / "cache"), run.deadline, stdout=f)
        setups.append(time.perf_counter() - t)
        run.tally.check(probe.ok and "entries: 0" in (d / "stats.txt").read_text(), "set-up %d: a fresh cache is not empty (exit %s)" % (i, probe.code))
    return setups


def oracle_cold_pass(run, i):
    """One pass on a fresh cache. Returns `(child, out_dir, cache_counts)`."""
    d = run.fresh("pass%d" % i)
    cache, out = d / "cache", d / "out"
    child = run.compstat_run(ORACLE_EXPERIMENTS, cache, out)
    counts = cache_counts(cache)
    run.tally.check(
        child.ok and digests_match(run, out, ORACLE_EXPERIMENTS) and counts is not None and counts["writes"] > 0 and counts["misses"] > 0,
        "oracle-cold pass %d: exit %s, digests differ or the cache was not cold (%s)" % (i, child.code, counts),
    )
    return child, out, counts


def oracle_cold(run):
    setups = cache_open_setups(run)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < run.seconds:
        child, _, _ = oracle_cold_pass(run, len(passes))
        passes.append(child)
        shutil.rmtree(run.work / ("pass%d" % (len(passes) - 1)), ignore_errors=True)
        if child.timed_out:
            break
    return run_metrics(run, passes, setups, "compstat start-ups on a fresh cache", len(ORACLE_EXPERIMENTS))


# ---------------------------------------------------------------------
# registry-warm
# ---------------------------------------------------------------------

def prime(run, cache):
    """Fills `cache` with every oracle sweep of the registry; returns the seconds taken."""
    child = run.compstat_run(ORACLE_EXPERIMENTS, cache, run.fresh("prime-out"), "prime")
    run.tally.check(child.ok, "priming the cache failed with exit %s" % child.code)
    return child.wall_s


def registry_warm_pass(run, i, cache):
    out = run.fresh("out%d" % i)
    child = run.compstat_run(["--all"], cache, out)
    counts = cache_counts(cache)
    run.tally.check(
        child.ok and goldens_match(run, out) and counts is not None and counts["misses"] == 0,
        "registry-warm pass %d: exit %s, goldens differ or the oracle ran (%s)" % (i, child.code, counts),
    )
    return child, out, counts


def registry_warm(run):
    caches = [run.fresh("cache%d" % k) for k in range(PRIMES)]
    setups = [prime(run, c) for c in caches]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < run.seconds:
        child, out, _ = registry_warm_pass(run, len(passes), caches[len(passes) % PRIMES])
        passes.append(child)
        shutil.rmtree(out, ignore_errors=True)
        if child.timed_out:
            break
    return run_metrics(run, passes, setups, "cache primes", REGISTRY_SIZE)


# ---------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------


def serve_script(run):
    """Writes the seeded frames and their offline replies; set-up, untimed.
    Returns `(path, frames, classes, baseline)`."""
    frames, classes = serve_frames.generate(run.seed, SERVE_FRAMES[run.scale])
    path = run.work / "frames.txt"
    path.write_text("\n".join(frames) + "\n")
    with open(run.work / "baseline.txt", "wb") as f:
        child = harness.run(
            [run.compstat, "serve", "--offline", str(path), "--threads", "1"],
            run.env(run.fresh("baseline-cache")),
            run.deadline,
            stdout=f,
        )
    baseline = (run.work / "baseline.txt").read_bytes().split(b"\n")[:-1]
    if not child.ok or len(baseline) != len(frames):
        raise SystemExit("perfbench: `compstat serve --offline` failed (exit %s)" % child.code)
    return path, [f.encode() for f in frames], classes, baseline


class Server:
    """A `compstat serve` child on 127.0.0.1:0 with a fresh cache."""

    def __init__(self, run, cache):
        self.started = time.perf_counter()
        self.log = open(run.work / "server.log", "wb")
        self.proc = subprocess.Popen(
            [run.compstat, "serve", "--addr", "127.0.0.1:0", "--workers", str(run.threads), "--threads", "1"],
            env=run.env(cache),
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.child = None
        ready, _, _ = select.select([self.proc.stdout], [], [], min(30.0, run.deadline.left()))
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise SystemExit("perfbench: compstat serve did not start: %r" % line)
        host, port = line.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def stop(self):
        """Stops the server and returns its rusage as a `harness.Child`."""
        if self.child is None:
            self.proc.send_signal(signal.SIGTERM)
            self.child = harness.reap(self.proc, self.started)
            self.proc.stdout.close()
            self.log.close()
        return self.child


class Connection:
    def __init__(self, addr, deadline):
        self.sock = socket.create_connection(addr, timeout=max(1.0, deadline.left()))
        self.reader = self.sock.makefile("rb")

    def ask(self, frame):
        """Sends one frame and returns the reply line without its newline
        (empty when the server dropped the connection)."""
        try:
            self.sock.sendall(frame + b"\n")
            return self.reader.readline().rstrip(b"\n")
        except OSError:
            return b""

    def close(self):
        self.reader.close()
        self.sock.close()


PING = b'{"schema":"compstat-serve/v1","id":"ready","verb":"ping"}'
STATS = b'{"schema":"compstat-serve/v1","id":"stats","verb":"stats"}'


def start_server(run):
    """Starts a server on a fresh cache and opens `nproc` connections to
    it. Returns `(server, conns, setup_s)`, `setup_s` running from the
    launch to the first `ping` reply."""
    server = Server(run, run.fresh("serve-cache"))
    conns = []
    try:
        conns = [Connection(server.addr, run.deadline) for _ in range(run.threads)]
        ready = conns[0].ask(PING)
        setup_s = time.perf_counter() - server.started
        if b'"ok":true' not in ready:
            raise SystemExit("perfbench: compstat serve did not answer ping: %r" % ready)
    except BaseException:
        stop_server(server, conns)
        raise
    return server, conns, setup_s


def stop_server(server, conns):
    for c in conns:
        c.close()
    return server.stop()


def serve_pass(run, frames, baseline):
    """Starts a server, plays every frame over `nproc` closed-loop
    connections and stops it. Returns `(setup_s, wall_s, latencies,
    stats_reply, child)`, `latencies` holding `(frame index, seconds)`
    for each frame sent."""
    server, conns, setup_s = start_server(run)
    try:
        lock = threading.Lock()
        cursor = [0]
        results = [[] for _ in conns]

        def client(conn, out):
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(frames):
                    return
                t = time.perf_counter()
                reply = conn.ask(frames[i])
                out.append((time.perf_counter() - t, reply == baseline[i], i))

        start = time.perf_counter()
        workers = [threading.Thread(target=client, args=(c, r)) for c, r in zip(conns, results)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall_s = time.perf_counter() - start
        stats = conns[0].ask(STATS)
    finally:
        child = stop_server(server, conns)
    done = sorted((i, lat, ok) for out in results for lat, ok, i in out)
    run.tally.check(len(done) == len(frames), "serve-mixed: %d of %d frames were sent" % (len(done), len(frames)))
    for i, _, ok in done:
        run.tally.check(ok, "serve-mixed frame r%d: reply differs from `serve --offline` or was dropped" % i)
    return setup_s, wall_s, [(i, lat) for i, lat, _ in done], stats, child


def serve_mixed(run):
    _, frames, classes, baseline = serve_script(run)
    # Start-ups beyond those of the passes, so the median is of many.
    setups = []
    for _ in range(SETUP_REPEATS):
        server, conns, setup_s = start_server(run)
        stop_server(server, conns)
        setups.append(setup_s)
    walls, children, samples, hits, misses = [], [], [], 0, 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < run.seconds:
        setup_s, wall_s, lat, stats, child = serve_pass(run, frames, baseline)
        setups.append(setup_s)
        walls.append(wall_s)
        children.append(child)
        samples += [(x, classes[i]) for i, x in lat]
        cache = json.loads(stats)["cache"]
        hits, misses = hits + cache["hits"], misses + cache["misses"]
    setup_what = "server start-ups to the first ping reply, %d of them passes'" % len(walls)
    m = e2e_metrics(run, walls, [c.cpu_s for c in children], [c.rss_mb for c in children], setups, setup_what)
    m["rps"] = (len(samples) / sum(walls), "1/s", "%d requests in %.3f s of passes" % (len(samples), sum(walls)))
    latency_metrics(m, [x for x, _ in samples], "request")
    # Latency by kind of request: what each part of the mix costs.
    for c in sorted(set(classes)):
        latency_metrics(m, [x for x, k in samples if k == c], c, "." + c)
    scoring = sum(c != "ping" for c in classes)
    m["repeat_share"] = (sum(c == "repeat" for c in classes) / scoring, "ratio", "share of scoring requests whose input was sent before")
    tail = m["latency_p99_ms"][0] / 1e3
    slow = [c for x, c in samples if x >= tail]
    m["tail_fresh_share"] = (slow.count("fresh") / max(1, len(slow)), "ratio", "share of the %d requests at or above latency_p99_ms that were fresh" % len(slow))
    m["cache_hit_ratio"] = (hits / max(1, hits + misses), "ratio", "server cache hits / lookups over all passes, from the stats verb")
    return m


# ---------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------


def run_metrics(run, passes, setups, setup_what, reports_per_pass):
    """The end-to-end metrics of a run workload. It has one latency
    sample per pass, too few for a tail, so `rps` and both latency
    percentiles restate `wall_s`; they are reported because every
    workload reports every metric."""
    walls = [c.wall_s for c in passes]
    m = e2e_metrics(run, walls, [c.cpu_s for c in passes], [c.rss_mb for c in passes], setups, setup_what)
    ops = reports_per_pass * len(passes)
    m["rps"] = (ops / sum(walls), "1/s", "%d reports in %.3f s of passes; restates wall_s" % (ops, sum(walls)))
    latency_metrics(m, walls, "pass")
    for p in (50, 99):
        value, _, note = m["latency_p%d_ms" % p]
        m["latency_p%d_ms" % p] = (value, "ms", note + "; restates wall_s")
    return m


def e2e_metrics(run, walls, cpus, rsses, setups, setup_what):
    """The metrics every workload takes the same way, each as `(value,
    unit, how it was taken)`."""
    run.samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "peak_rss_mb": rsses}
    n = len(walls)
    return {
        "wall_s": (harness.median(walls), "s", "median of %d passes" % n),
        "cpu_s": (harness.median(cpus), "s", "median user+sys of compstat over %d passes" % n),
        "setup_s": (harness.median(setups), "s", "median of %d %s" % (len(setups), setup_what)),
        "peak_rss_mb": (harness.median(rsses), "MB", "median over %d passes of compstat's peak RSS" % n),
    }


def latency_metrics(m, latencies, what, suffix=""):
    for p in (50, 99):
        value, note = harness.honest_percentile(latencies, p)
        m["latency_p%d_ms%s" % (p, suffix)] = (value * 1e3, "ms", "%s latency: %s" % (what, note))


# ---------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------


def run_tracer(run, extra=()):
    """Runs perfbench-tracer on a fresh cache; returns its metrics and work dir."""
    d = run.fresh("trace")
    args = [
        run.tracer, "--workload", run.workload, "--scale", run.scale,
        "--threads", str(run.threads), "--seed", str(run.seed), "--work", str(d), *extra,
    ]
    with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
        child = harness.run(args, run.env(d / "cache"), run.deadline, stdout=out, stderr=err)
    lines = (d / "stdout.txt").read_text().strip().splitlines()
    if not child.ok or not lines:
        raise SystemExit("perfbench: perfbench-tracer failed (exit %s): %s" % (child.code, (d / "stderr.txt").read_text()[-2000:]))
    doc = json.loads(lines[-1])
    metrics = {k: (v["value"], v["unit"], "traced") for k, v in doc.items()}
    return metrics, d


def span_durations(trace_dir, name):
    out = []
    with open(trace_dir / "trace.jsonl") as f:
        for line in f:
            s = json.loads(line)
            if s["name"] == name:
                out.append((s["end_ns"] - s["start_ns"]) / 1e9)
    return out


def cache_metrics(m, counts):
    for k in ("hits", "misses", "writes", "errors"):
        m["cache." + k] = (counts[k], "count", "from the untraced pass's cache counters")
    looked_up = counts["hits"] + counts["misses"]
    m["cache.hit_ratio"] = (counts["hits"] / looked_up if looked_up else 0.0, "ratio", "hits / (hits + misses)")


def trace_runs(run):
    """A traced run of the registry workloads: one untraced pass, then
    the tracer's traced pass over the same experiments."""
    if run.workload == "oracle-cold":
        child, out, counts = oracle_cold_pass(run, 0)
        names = ORACLE_EXPERIMENTS
    else:
        cache = run.fresh("cache")
        prime(run, cache)
        child, out, counts = registry_warm_pass(run, 0, cache)
        names = [p.stem for p in sorted(out.glob("*.json")) if p.name != "index.json"]
    m, d = run_tracer(run)
    run.tally.check(
        same_files(out, d / "reports", [n + ".json" for n in names]),
        "the traced pass wrote different report bytes from `compstat run`",
    )
    # A failed pass leaves no counters; its failure is already counted.
    cache_metrics(m, counts or dict.fromkeys(("hits", "misses", "writes", "errors"), 0))
    m["trace.overhead"] = (m["trace.pass_s"][0] / child.wall_s, "ratio", "traced pass %.3f s / untraced pass %.3f s" % (m["trace.pass_s"][0], child.wall_s))
    return m


def trace_serve(run):
    """A traced serve-mixed run: one pass over TCP, then the same frames
    answered in-process by the tracer, one span per `respond_line`."""
    path, frames, classes, baseline = serve_script(run)
    _, wall_s, latencies, stats, _ = serve_pass(run, frames, baseline)
    m, d = run_tracer(run, ["--frames", str(path)])
    replies = (d / "replies.txt").read_bytes().split(b"\n")[:-1]
    run.tally.check(replies == baseline, "in-process replies differ from `serve --offline`")
    respond = span_durations(d, "serve.respond")
    for p in (50, 99):
        value, note = harness.honest_percentile(respond, p)
        m["serve.respond_us.p%d" % p] = (value * 1e6, "us", "in-process requests: " + note)
    e2e_p50 = harness.percentile([x for _, x in latencies], 50)
    m["serve.net_us"] = (e2e_p50 * 1e6 - m["serve.respond_us.p50"][0], "us", "end-to-end p50 minus in-process p50")
    # The same split per kind of request: how much of each kind's median
    # is spent in respond_line, and how much outside it.
    for c in sorted(set(classes)):
        inside = harness.median([x for x, k in zip(respond, classes) if k == c]) * 1e6
        outside = harness.median([x for i, x in latencies if classes[i] == c]) * 1e6 - inside
        m["serve.respond_us.p50.%s" % c] = (inside, "us", "in-process p50 of %s requests" % c)
        m["serve.net_us.%s" % c] = (outside, "us", "end-to-end p50 minus in-process p50 of %s requests" % c)
    doc = json.loads(stats)
    for k in ("requests", "errors"):
        m["serve." + k] = (doc[k], "count", "from the stats verb")
    cache = {k: int(doc["cache"][k]) for k in ("hits", "misses", "writes", "errors")}
    m["serve.cache_hits"] = (cache["hits"], "count", "from the stats verb")
    m["serve.cache_misses"] = (cache["misses"], "count", "from the stats verb")
    cache_metrics(m, cache)
    m["trace.overhead"] = (m["trace.pass_s"][0] / wall_s, "ratio", "in-process traced pass %.3f s / TCP pass %.3f s" % (m["trace.pass_s"][0], wall_s))
    return m


E2E = {"oracle-cold": oracle_cold, "registry-warm": registry_warm, "serve-mixed": serve_mixed}
TRACED = {"oracle-cold": trace_runs, "registry-warm": trace_runs, "serve-mixed": trace_serve}
