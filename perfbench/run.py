"""probfpc benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload probterm-deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout: it imports `probfpc` from `src/`.  One
client sends the workload's fixed request list to `probfpc.cli.main`
in-process, in a closed loop, pass after pass, until `--seconds` have gone;
every output is checked against its reference outside the timed region.
`--trace 1` measures half the time untraced and half traced, and reports
the per-layer metrics of the traced passes and the tracing overhead.  The
last line of standard output is the JSON result; the lines before it are
the same figures for people.  `--workload all` runs every workload in a
fresh process of its own.

See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads                       # noqa: E402
from perfbench.trace import Tracer                     # noqa: E402

SETUPS = 7              # set-ups per run; setup_s is their median
MIN_TAIL = 10           # a percentile needs this many samples beyond it


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


# --- set-up ---------------------------------------------------------------------

def import_probfpc():
    """A fresh import of the package, as a new CLI process would do."""
    for name in [m for m in sys.modules if m == "probfpc" or m.startswith("probfpc.")]:
        del sys.modules[name]
    return importlib.import_module("probfpc.cli")


def setup(workload, seed, work):
    """Import probfpc and write the workload's inputs; returns the CLI
    module and the plan with file arguments resolved."""
    cli = import_probfpc()
    plan = workloads.build(workload, random.Random(seed))
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for name, src in plan.files.items():
        (work / name).write_text(src)
    for req in plan.requests + ([plan.probe] if plan.probe else []):
        req.argv = [str(work / a[1:]) if a.startswith("@") else a for a in req.argv]
    return cli, plan


# --- requests -------------------------------------------------------------------

def call(fn, argv):
    """One request; returns (seconds, exit code or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        code = fn(argv, out, err)
    except SystemExit as e:
        code = e.code
    except Exception as e:      # any crash, RecursionError included, fails the request
        code = type(e).__name__
    return time.perf_counter() - t0, code, out.getvalue()


class Verifier:
    """Checks outputs; an output byte-identical to one already checked,
    with the same outputs of the requests it depends on, passes again."""

    def __init__(self):
        self.done = {}

    def __call__(self, req, code, out, seen, digests):
        """Returns None when right, else why not.  Fills seen and digests."""
        if code != req.code:
            what = "raised %s" % code if isinstance(code, str) else "exit code %s" % code
            return "%s, want exit code %d" % (what, req.code)
        key = (hashlib.sha1(out.encode()).hexdigest(),) + tuple(digests.get(d) for d in req.deps)
        hit = self.done.get(req.label)
        if hit is not None and hit[0] == key:
            parsed = hit[1]
        else:
            try:
                parsed = req.check(out, seen)
            except Exception as e:  # a malformed output is a wrong output
                return "%s: %s" % (type(e).__name__, e)
            self.done[req.label] = (key, parsed)
        seen[req.label] = parsed
        digests[req.label] = key[0]
        return None


def run_pass(plan, fn, verify, tracer=None, first_id=0):
    """The request list once; returns (latencies, failures)."""
    lat, failures, seen, digests = [], [], {}, {}
    for i, req in enumerate(plan.requests):
        gc.collect()
        if tracer is None:
            dt, code, out = call(fn, req.argv)
        else:
            dt, code, out = call(lambda a, o, e: tracer.run_request(first_id + i, a, o, e),
                                 req.argv)
            tracer.observe(out)
        lat.append(dt)
        why = verify(req, code, out, seen, digests)
        if why is not None:
            failures.append((req.label, why))
    return lat, failures


def measure(plan, fn, verify, seconds, tracer=None):
    """Passes until `seconds` have gone (at least one).  Per pass: the
    latencies, the failures and, when traced, the layer tally."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        lat, failures = run_pass(plan, fn, verify, tracer, len(passes) * len(plan.requests))
        tally = None
        if tracer is not None:
            tally = tracer.metrics()
            tracer.recording = False        # the span file holds the first pass
        passes.append((lat, failures, tally))
    return passes


# --- statistics -----------------------------------------------------------------

def percentile(xs, q):
    """Nearest-rank percentile, with how many samples lie beyond it."""
    xs = sorted(xs)
    rank = max(1, -(-len(xs) * q // 100))
    return xs[int(rank) - 1], len(xs) - int(rank)


def summary(passes):
    lat = [x for p in passes for x in p[0]]
    walls = [sum(p[0]) for p in passes]
    p90, beyond = percentile(lat, 90)
    return {
        "wall_s": statistics.median(walls),
        "req_p50_s": statistics.median(lat),
        "req_p90_s": p90,
        "n": len(lat),
        "beyond": beyond,
        "passes": len(passes),
    }


# --- one workload ---------------------------------------------------------------

def bench(args):
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    setups = []
    try:
        for _ in range(SETUPS):
            gc.collect()
            t0 = time.perf_counter()
            try:
                cli, plan = setup(args.workload, args.seed, work)
            except ImportError as e:
                fail("cannot import probfpc from %s: %s" % (ROOT / "src", e))
            setups.append(time.perf_counter() - t0)
        return measure_workload(args, cli, plan, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run_probe(plan, main, verify):
    """The known-failure probe, once, outside the timed passes and after
    peak memory is read; returns (request, seconds, why it failed or None)."""
    if plan.probe is None:
        return None
    gc.collect()
    dt, code, out = call(main, plan.probe.argv)
    return plan.probe, dt, verify(plan.probe, code, out, {}, {})


def measure_workload(args, cli, plan, setups):
    verify = Verifier()
    main = cli.main
    gc.collect()
    traced = tracer = None
    if not args.trace:
        passes = measure(plan, main, verify, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = run_probe(plan, main, verify)
    else:
        passes = measure(plan, main, verify, args.seconds / 2)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = run_probe(plan, main, verify)
        tracer = Tracer()
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("probfpc.")}
        tracer.install(modules, main)
        traced = measure(plan, main, verify, args.seconds / 2, tracer)
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(HERE / "out" / ("spans-%s-%d.tsv" % (args.workload, args.seed)))
    every = passes + (traced or [])
    failures = [f for p in every for f in p[1]]
    attempted = sum(len(p[0]) for p in every)
    s = summary(passes)
    probe_failed = int(probe is not None and probe[2] is not None)

    print("perfbench %s  seed=%d  seconds=%s  trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("  one client, closed loop, %d requests per pass, %d passes untraced"
          % (len(plan.requests), s["passes"]))
    print("  %-14s %12.6f s    median of %d set-ups (first %.6f s)"
          % ("setup_s", statistics.median(setups), len(setups), setups[0]))
    print("  %-14s %12.6f s    median makespan of %d passes"
          % ("wall_s", s["wall_s"], s["passes"]))
    print("  %-14s %12.6f s    n=%d" % ("req_p50_s", s["req_p50_s"], s["n"]))
    print("  %-14s %12.6f s    n=%d, %d beyond%s" % (
        "req_p90_s", s["req_p90_s"], s["n"], s["beyond"],
        "" if s["beyond"] >= MIN_TAIL else " (fewer than %d: too few samples)" % MIN_TAIL))
    print("  %-14s %12.3f MB   peak resident memory of this process" % ("peak_rss_mb", rss_mb))
    print("  %-14s %12.6f      %d of %d requests failed (the probe included)" % (
        "fail_rate", (len(failures) + probe_failed) / (attempted + (probe is not None)),
        len(failures) + probe_failed, attempted + (probe is not None)))
    if probe is not None:
        print("  probe %s: %s (%.3f s, outside the timed passes)" % (
            probe[0].label, "ok" if probe[2] is None else "FAILED, " + probe[2], probe[1]))
    for label, why in failures[:20]:
        print("  FAILED %s: %s" % (label, why))

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (s["wall_s"], "s"),
            "req_p50_s": (s["req_p50_s"], "s"),
            "req_p90_s": (s["req_p90_s"], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(traced, tracer, s, probe_failed)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(traced, tracer, untraced, probe_failed):
    """Per-pass medians of the traced tallies, the tracing overhead and the
    probe; printed as a table too."""
    t = summary(traced)
    metrics = {}
    for name, (_, unit) in traced[0][2].items():
        metrics[name] = (statistics.median(p[2][name][0] for p in traced), unit)
    metrics["trace.wall_s"] = (t["wall_s"], "s")
    metrics["trace.overhead_s"] = (t["wall_s"] - untraced["wall_s"], "s")
    metrics["probe.failed"] = (probe_failed, "count")
    print("  traced: %d passes, wall_s %.6f s against %.6f s untraced; per pass:"
          % (t["passes"], t["wall_s"], untraced["wall_s"]))
    for name, (v, unit) in metrics.items():
        print("    %-30s %16s %s" % (name, ("%.6f" % v) if isinstance(v, float) else v, unit))
    if tracer.missing:
        print("  not traced, the program no longer has: %s" % ", ".join(tracer.missing))
    return metrics


# --- all workloads --------------------------------------------------------------

def bench_all(args):
    """Every workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail("workload %s exited with %d" % (wl, proc.returncode))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"]["%s/%s" % (wl, k)] = v
    print(json.dumps(combined))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    return bench_all(args) if args.workload == "all" else bench(args)


if __name__ == "__main__":
    sys.exit(main())
