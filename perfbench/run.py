#!/usr/bin/env python3
"""Repository benchmark: the experiment suite end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

It builds perfbench/pb.exe with dune, prepares the result store (set-up),
then runs the whole experiment suite in fresh worker processes until
--seconds have passed, at least once.  Every suite run compares each
table with its reference.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs the suite once untraced and once traced,
requires byte-identical tables, and reports the per-layer metrics.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every table matched and every exact work
count repeated.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "pb.exe")
STATE = ".perfbench"
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170  # wall budget of one run after the build
DEFAULT_SEED = 1

# Set-up (in pb.exe): paper-cold clears the result store, paper-warm
# clears and fills it, quick-nocache only starts a worker process.
WORKLOADS = ("paper-cold", "paper-warm", "quick-nocache")

# Set-up runs at least MIN_SETUPS times and, while cheap, up to MAX_SETUPS
# times or SETUP_BUDGET_S seconds; setup_s is the median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 41, 2.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    # The program reads BALLARUS_* (jobs, cache, tracing, fuel, faults);
    # the worker sets what each workload needs, so none may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("BALLARUS_")}


class Worker:
    def __init__(self, workload, deadline):
        self.workload = workload
        self.deadline = deadline
        self.env = child_env()

    def run(self, *args):
        """Run pb.exe; return (stdout, wall seconds, peak RSS in MiB)."""
        argv = [EXE, *args, "--workload", self.workload]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before " + " ".join(args[:1]))
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env)
        timer = threading.Timer(remaining, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
            p.stdout.close()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited with {p.returncode}")
        return out.decode(), wall, usage.ru_maxrss / 1024.0

    def setup(self):
        return self.run("setup")[1]

    def suite(self, seed, tables=None, trace=None):
        args = ["suite", "--seed", str(seed)]
        if tables:
            os.makedirs(tables, exist_ok=True)
            for f in os.listdir(tables):
                os.remove(os.path.join(tables, f))
            args += ["--tables", tables]
        if trace:
            args += ["--trace", trace]
        out, _, rss = self.run(*args)
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("suite printed no result")
        result = json.loads(lines[-1])
        result["peak_rss_mb"] = rss
        return result


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            raise BenchError(f"not a checkout of the repository: {need} is missing")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/pb.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
            # the shared dune cache lives outside the checkout
            env=dict(child_env(), DUNE_CACHE="disabled"))
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        raise BenchError("build failed")


def fingerprint(suite_result):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fp = dict(suite_result["fingerprint"])
    fp["nproc"] = len(os.sched_getaffinity(0))
    fp["cpu_model"] = model
    return fp


def source_digest():
    """Digest of the code the results depend on, to key the work counts."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "test/golden"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def check_counts(workload, counts, problems):
    """Work counts must repeat exactly across runs of the same code."""
    d = os.path.join(STATE, "counts")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{source_digest()}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    drift = {k: (known[k], v) for k, v in counts.items() if k in known and known[k] != v}
    for k, (a, b) in sorted(drift.items()):
        problems.append(f"work count {k} drifted: {a} in an earlier run, {b} now")
    known.update(counts)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)


def check_suite(r, problems):
    if not r["prewarm_ok"]:
        log("prewarm failed permanently; experiments recomputed on demand")
    for id_ in r["bad"]:
        problems.append(f"table {id_} failed or differs from its reference")


def same_counts(results, problems):
    first = results[0]["counts"]
    for r in results[1:]:
        for k, v in r["counts"].items():
            if first.get(k) != v:
                problems.append(f"work count {k} differs between suite runs: {first.get(k)} vs {v}")


def measure(w, args, problems):
    """Untraced runs: the end-to-end metrics."""
    # every cold suite needs an empty store
    clear_each = args.workload == "paper-cold"
    setups = []
    t0 = time.monotonic()
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and time.monotonic() - t0 < SETUP_BUDGET_S):
        setups.append(w.setup())
    suites = []
    start = time.monotonic()
    while not suites or time.monotonic() - start < args.seconds:
        if suites and clear_each:
            setups.append(w.setup())
        suites.append(w.suite(args.seed))
    for r in suites:
        check_suite(r, problems)
    same_counts(suites, problems)
    attempted = sum(r["attempted"] for r in suites)
    failed = sum(len(r["bad"]) for r in suites)
    metrics = {
        "suite_s": statistics.median(r["wall_s"] for r in suites),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in suites),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in suites),
        "pass_ratio": (attempted - failed) / attempted,
    }
    samples = {
        "suite_s": [r["wall_s"] for r in suites],
        "cpu_s": [r["cpu_s"] for r in suites],
        "setup_s": setups,
    }
    return suites, attempted, failed, metrics, samples


def diff_tables(a, b, problems):
    """Count the tables of run a that run b did not reproduce byte-for-byte."""
    differ = 0
    for f in sorted(os.listdir(a)):
        with open(os.path.join(a, f), "rb") as fa:
            x = fa.read()
        try:
            with open(os.path.join(b, f), "rb") as fb:
                y = fb.read()
        except OSError:
            y = None
        if x != y:
            differ += 1
            problems.append(f"traced table {f} differs from the untraced one")
    return differ


def measure_traced(w, args, problems):
    """One untraced and one traced suite run: the per-layer metrics."""
    clear_each = args.workload == "paper-cold"
    w.setup()
    untraced_dir = os.path.join(STATE, "tables", "untraced")
    traced_dir = os.path.join(STATE, "tables", "traced")
    u = w.suite(args.seed, tables=untraced_dir)
    if clear_each:
        w.setup()
    trace_file = os.path.join(STATE, f"trace-{args.workload}-seed{args.seed}.json")
    t = w.suite(args.seed, tables=traced_dir, trace=trace_file)
    log(f"Chrome trace written to {trace_file}")
    for r in (u, t):
        check_suite(r, problems)
    same_counts([u, t], problems)
    differ = diff_tables(untraced_dir, traced_dir, problems)
    attempted = u["attempted"] + t["attempted"]
    failed = len(u["bad"]) + len(t["bad"]) + differ
    c, rc = t["counts"], t["replay_counts"]
    lookups = c["cache.hit"] + c["cache.miss"] + c["cache.corrupt"]
    metrics = dict(t["layers"])
    metrics.update({
        "cfg.blocks": rc["cfg.blocks"],
        "sim.instrs": rc["sim.instrs"],
        "sim.branch_events": rc["sim.branch_events"],
        "core.branches": rc["core.branches"],
        "core.cells": rc["core.cells"],
        "core.trials": rc["core.trials"],
        "tracing.breaks": rc["tracing.breaks"],
        "cache.lookups": lookups,
        "cache.hits": c["cache.hit"],
        "cache.hit_ratio": c["cache.hit"] / lookups if lookups else 0.0,
        "cache.writes": c["cache.write"],
        "cache.bytes_read": rc["cache.bytes_read"],
        "cache.bytes_written": rc["cache.bytes_written"],
        "cache.store_mb": c["store.bytes"] / 2**20,
        "par.jobs": t["fingerprint"]["jobs"],
        "par.tasks": c["pool.tasks"],
        "robust.retries": c["robust.retries"],
        "robust.task_failures": c["robust.task_failures"],
        "robust.timeouts": c["robust.timeouts"],
        "robust.fuel_exhausted": c["robust.fuel_exhausted"],
        "obs.overhead_ratio": t["wall_s"] / u["wall_s"] - 1.0,
        "error_ratio": failed / attempted,
    })
    samples = {"suite_s": [u["wall_s"]], "traced_suite_s": [t["wall_s"]]}
    return [u, t], attempted, failed, metrics, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="permutes the order of the experiments after the prewarm")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        build()
        os.makedirs(STATE, exist_ok=True)
        w = Worker(args.workload, time.monotonic() + RUN_BUDGET_S)
        problems = []
        if args.trace:
            suites, attempted, failed, values, samples = measure_traced(w, args, problems)
            wanted = spec["per_layer"]
        else:
            suites, attempted, failed, values, samples = measure(w, args, problems)
            wanted = spec["end_to_end"]
        counts = dict(suites[-1]["counts"])
        counts.update(suites[-1].get("replay_counts", {}))
        check_counts(args.workload, counts, problems)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError("metrics not produced: " + ", ".join(missing))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2

    for p in problems:
        log(p)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    fp = fingerprint(suites[-1])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fp,
        "metrics": metrics, "samples": samples, "counts": counts,
        "problems": problems,
    }
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
