#!/usr/bin/env python3
"""compstat's benchmark: see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale S]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --compare BASE.json NEW.json
    python3 perfbench/run.py --regen-digests

Run from the root of a checkout. It builds the release `compstat`
binary and `perfbench-tracer` first (into $CARGO_TARGET_DIR, default
`.bench_build`), then measures. The last stdout line is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import harness  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".bench_work"
# A run, builds excluded, must finish well inside the 180 s it is given.
RUN_BUDGET_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Builds both binaries; returns their paths. Cargo's output goes to stderr."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        fail("no compstat sources here: run from the root of a compstat checkout")
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        os.environ["CARGO_TARGET_DIR"] = str(target)
    for args in (
        ["cargo", "build", "--release", "--offline", "--locked", "-q", "-p", "compstat-cli"],
        ["cargo", "build", "--release", "--offline", "--locked", "-q", "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ):
        if subprocess.run(args, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(args), 1)
    return target / "release" / "compstat", target / "release" / "perfbench-tracer"


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {}


def measure(args, bench):
    compstat, tracer = build()
    scale = args.scale or workloads.SCALES[args.workload][0]
    if scale not in workloads.SCALES[args.workload]:
        fail("%s runs at scale %s" % (args.workload, " or ".join(workloads.SCALES[args.workload])))
    work = WORK / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(
        ROOT, work, compstat, tracer, args.workload, args.seed, args.seconds, scale,
        harness.Deadline(RUN_BUDGET_S), load_digests(),
    )
    try:
        if args.trace:
            metrics = workloads.TRACED[args.workload](run)
            wanted = bench["per_layer"]
        else:
            metrics = workloads.E2E[args.workload](run)
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = run.tally
    metrics["failed_frac"] = (tally.failed / max(1, tally.attempted), "ratio", "%d of %d operations failed" % (tally.failed, tally.attempted))
    doc = {
        "schema": "perfbench-result/v1",
        "non_deterministic": True,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": run.threads,
        "fingerprint": harness.fingerprint(ROOT, scale),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "metrics": {k: {"value": v, "unit": u, "how": how} for k, (v, u, how) in sorted(metrics.items())},
        "samples": run.samples,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc_path = results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    doc_path.write_text(json.dumps(doc, indent=1) + "\n")

    machine = doc["fingerprint"]["machine"]
    print("perfbench %s seed=%d scale=%s threads=%d trace=%d" % (args.workload, args.seed, scale, run.threads, args.trace))
    print("  machine: nproc=%d, %s, %s" % (machine["nproc"], machine["cpu_model"], machine["rustc"]))
    for k, (v, u, how) in sorted(metrics.items()):
        print("  %-28s %14.6g %-6s %s" % (k, v, u, how))
    for reason in tally.reasons:
        print("  FAILED: " + reason)
    print("  result document: %s" % doc_path.relative_to(ROOT))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("internal error: no value for %s" % ", ".join(missing), 1)
    line = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))


def smoke(bench):
    """Every workload at the quick scale for one second, traced and
    untraced; checks each last line against BENCHMARK.json."""
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            args = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "quick"]
            t = time.perf_counter()
            out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
            label = "%s --trace %d" % (w["name"], trace)
            print("smoke: %-26s exit %d in %.1f s" % (label, out.returncode, time.perf_counter() - t))
            problems += ["%s: %s" % (label, p) for p in validate(out, bench, trace)]
    for p in problems:
        print("smoke: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    sys.exit(1 if problems else 0)


def validate(out, bench, trace):
    """Problems with one run's output, checked against BENCHMARK.json."""
    if out.returncode != 0:
        return ["exit code %d: %s" % (out.returncode, out.stderr.strip()[-500:])]
    try:
        doc = json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["last stdout line is not JSON"]
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(doc))
    if doc.get("correct") is not True or doc.get("failed") != 0 or not doc.get("attempted", 0) >= 1:
        problems.append("correct=%s attempted=%s failed=%s" % (doc.get("correct"), doc.get("attempted"), doc.get("failed")))
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = doc.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("metric names differ: %s" % sorted(set(metrics) ^ {m["name"] for m in wanted}))
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s = %s" % (m["name"], got))
        elif not trace and value <= 0:
            problems.append("%s is %s, not positive" % (m["name"], value))
    return problems


def compare(base_path, new_path, bench):
    """Per-metric change from one result document to another, refused
    unless both come from the same machine, workload and settings."""
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            fail("refusing to compare: %s differs (%s vs %s)" % (key, base[key], new[key]))
    for key in ("machine", "scale"):
        if base["fingerprint"][key] != new["fingerprint"][key]:
            fail("refusing to compare results from different fingerprints: %s %s vs %s" % (key, base["fingerprint"][key], new["fingerprint"][key]))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    regressions = 0
    for name in sorted(set(base["metrics"]) & set(new["metrics"])):
        b, n = base["metrics"][name]["value"], new["metrics"][name]["value"]
        change = (n - b) / b if b else float("nan")
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > bounds[name]["bound"] else "ok"
            regressions += verdict == "REGRESSION"
        print("%-28s %14.6g -> %-14.6g %+8.1f%%  %s" % (name, b, n, 100 * change, verdict))
    sys.exit(1 if regressions else 0)


def regen_digests():
    """Records the report digests `oracle-cold` checks against: a cold
    run and a warm run must write the same bytes, and at the quick
    scale those must also be the committed goldens."""
    compstat, _ = build()
    digests = {}
    for scale in ("quick", "default"):
        outs = []
        cache = WORK / "regen-cache"
        shutil.rmtree(cache, ignore_errors=True)
        for leg in ("cold", "warm"):
            out = WORK / ("regen-" + leg)
            shutil.rmtree(out, ignore_errors=True)
            env = {k: v for k, v in os.environ.items() if not k.startswith("COMPSTAT_")}
            env["COMPSTAT_CACHE_DIR"] = str(cache)
            cmd = [str(compstat), "run", *workloads.ORACLE_EXPERIMENTS, "--scale", scale, "--threads", str(harness.nproc()), "--out", str(out)]
            subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
            outs.append({p.name: harness.sha256_file(p) for p in sorted(out.glob("*.json"))})
            shutil.rmtree(out)
        shutil.rmtree(cache)
        if outs[0] != outs[1]:
            fail("cold and warm runs wrote different bytes at scale %s" % scale, 1)
        if scale == "quick":
            for name, digest in outs[0].items():
                if name != "index.json" and harness.sha256_file(ROOT / "goldens" / "quick" / name) != digest:
                    fail("%s differs from goldens/quick" % name, 1)
        digests[scale] = outs[0]
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % DIGESTS.relative_to(ROOT))


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("quick", "default"))
    p.add_argument("--smoke", action="store_true", help="run every workload on a tiny budget and validate the output")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result documents")
    p.add_argument("--regen-digests", action="store_true", help="rewrite perfbench/digests.json")
    args = p.parse_args()
    if args.smoke:
        smoke(bench)
    elif args.compare:
        compare(*args.compare, bench)
    elif args.regen_digests:
        regen_digests()
    elif args.workload:
        measure(args, bench)
    else:
        p.error("give --workload, --smoke, --compare or --regen-digests")


if __name__ == "__main__":
    main()
