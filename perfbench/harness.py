"""Process control, statistics and the machine fingerprint.

Everything the benchmark times runs in a child process it started and
reaped itself, so CPU time and peak RSS come from that child's rusage.
"""

import hashlib
import math
import os
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

# Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10


class Deadline:
    """The wall-clock budget left for one benchmark run."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(0.0, self.end - time.monotonic())


class Child:
    """A finished child process: exit code, wall and CPU seconds, peak RSS."""

    def __init__(self, code, wall_s, cpu_s, rss_mb):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.timed_out = False

    @property
    def ok(self):
        return self.code == 0 and not self.timed_out


def reap(proc, started):
    """Waits for `proc` with wait4, so its own rusage is read."""
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def run(args, env, deadline, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Runs `args` to completion, killing it if the run's budget ends."""
    started = time.perf_counter()
    proc = subprocess.Popen(args, env=env, stdout=stdout, stderr=stderr)
    expired = threading.Event()

    def kill():
        expired.set()
        proc.send_signal(signal.SIGKILL)

    timer = threading.Timer(deadline.left(), kill)
    timer.start()
    try:
        child = reap(proc, started)
    finally:
        timer.cancel()
    child.timed_out = expired.is_set()
    return child


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def percentile(xs, p):
    """Linear interpolation between order statistics."""
    s = sorted(xs)
    pos = p / 100.0 * (len(s) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def honest_percentile(xs, p):
    """The p-th percentile when at least TAIL_SAMPLES samples lie beyond
    it; otherwise the highest of p99, p90, p75 and p50 that has them.

    Returns `(value, note)`, the note saying which percentile of how
    many samples the value is. When no percentile qualifies, the value
    is the median.
    """
    n = len(xs)
    for q in [p] + [q for q in (99, 90, 75, 50) if q < p]:
        if n - math.ceil(q / 100.0 * n) >= TAIL_SAMPLES:
            note = "p%d of %d samples" % (q, n)
            if q != p:
                note += "; p%d has fewer than %d beyond it" % (p, TAIL_SAMPLES)
            return percentile(xs, q), note
    return median(xs), "median of %d samples; no percentile has %d beyond it" % (n, TAIL_SAMPLES)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _command_line(args, cwd):
    try:
        out = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def _source_digest(root):
    """SHA-256 over the sources the program is built from: stands in for
    the git HEAD when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    files += sorted(p for p in (root / "crates").rglob("*") if p.suffix in (".rs", ".toml") and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def nproc():
    return len(os.sched_getaffinity(0))


def fingerprint(root, scale):
    """What a result depends on. `machine` must match for two results to
    be compared; `source` says which code was measured."""
    git_head = _command_line(["git", "rev-parse", "HEAD"], root) if (root / ".git").exists() else None
    return {
        "machine": {
            "nproc": nproc(),
            "cpu_model": _cpu_model(),
            "rustc": _command_line(["rustc", "-V"], root) or "unknown",
        },
        "scale": scale,
        "source": {"git_head": git_head, "sha256": _source_digest(root)},
    }
