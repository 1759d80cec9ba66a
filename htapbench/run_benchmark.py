#!/usr/bin/env python3
"""Runs the htapdb benchmark (bench_htap) and reports its metrics.

Run from the root of a checkout. The first run builds the benchmark and the
library into .bench_build; outputs (results, traces) go to .bench_out.

One workload, one run (the form BENCHMARK.json names). The last stdout line
is {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics,
or with --trace 1 the per-layer ones:

  python3 htapbench/run_benchmark.py --workload htap_rowcol --seed 7 \\
      --seconds 12 --trace 0

Every workload, each --reps times with seeds seed, seed+1, ...; prints each
metric's unit, median, min, max and quartile spread, and writes JSON:

  python3 htapbench/run_benchmark.py [--reps 3] [--trace] [--out FILE]
  python3 htapbench/run_benchmark.py --smoke     # 2 s runs, checks only

Compare two result files against the bounds in BENCHMARK.json (exits 1 when
an end-to-end median is worse than its bound):

  python3 htapbench/run_benchmark.py --compare A.json B.json
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "bench_htap")
RUN_TIMEOUT_S = 170

WORKLOADS = ["oltp_saturate", "olap_static", "htap_rowcol", "htap_colmain",
             "htap_disk"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds bench_htap; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace, extra=()):
    """Runs bench_htap once; returns (exit code, parsed result or None)."""
    if trace:  # keep only the latest trace of each workload
        for old in glob.glob(os.path.join(OUT_DIR, f"trace-{workload}-*.json")):
            os.remove(old)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        # The benchmark removes its data directory; this covers a crash.
        shutil.rmtree(os.path.join(OUT_DIR, "data"), ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: no result (exit code {proc.returncode})")
        return proc.returncode or 1, None


def single_run(args, spec):
    """The BENCHMARK.json command: one run, one result line."""
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload}; one of {WORKLOADS}")
        return 2
    if not build():
        return 1
    trace = bool(args.trace)
    seconds = args.seconds or spec["run_seconds"]
    code, result = run_once(args.workload, args.seed, seconds, trace)
    if result is None:
        return code or 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            log(f"metric {m['name']} missing from the result")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


def provenance(seed):
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=")[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
            "git_sha": sha or "unknown", "seed": seed,
            "host": platform.machine(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%S")}


def summarize(values):
    s = {"median": statistics.median(values), "min": min(values),
         "max": max(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        s["iqr_share"] = (q3 - q1) / s["median"] if s["median"] else 0.0
    return s


def suite(args, spec):
    """Every workload, --reps times; prints and writes a summary."""
    if not build():
        return 1
    smoke = args.smoke
    seconds = 2 if smoke else (args.seconds or spec["run_seconds"])
    extra = ["--warmup", "0.5", "--setup-reps", "1"] if smoke else []
    reps = 1 if smoke else args.reps
    workloads = [args.only] if args.only else WORKLOADS
    e2e = {m["name"] for m in spec["end_to_end"]}
    runs, ok = [], True
    for w in workloads:
        for i in range(reps):
            seed = args.seed + i
            for trace in ([False, True] if args.trace and not smoke
                          else [False]):
                log(f"== {w} seed {seed}{' traced' if trace else ''}")
                code, result = run_once(w, seed, seconds, trace, extra)
                good = code == 0 and result is not None and result["correct"]
                ok = ok and good
                if result is not None:
                    runs.append(result)
                if smoke:
                    print(f"{w:14s} {'ok' if good else 'FAILED'}")

    # Untraced runs give the end-to-end and per-side metrics; traced runs
    # add only the per-layer metrics the untraced runs do not report.
    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        untraced = {n for r in mine if not r["trace"] for n in r["metrics"]}
        per_metric = {}
        for r in mine:
            for name, m in r["metrics"].items():
                if r["trace"] == (name not in untraced):
                    per_metric.setdefault(name, (m["unit"], []))[1].append(
                        m["value"])
        summary[w] = {name: dict(unit=unit, **summarize(vals))
                      for name, (unit, vals) in per_metric.items()}
    result = {"provenance": provenance(args.seed), "seconds": seconds,
              "reps": reps, "summary": summary, "runs": runs}
    if not smoke:
        print_summary(summary, e2e)
    out = args.out or os.path.join(OUT_DIR, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    log(f"wrote {out}")
    return 0 if ok else 1


def print_summary(summary, e2e):
    for w, metrics in summary.items():
        print(f"\n{w}")
        print(f"  {'metric':42s} {'unit':>10s} {'median':>14s} {'min':>14s} "
              f"{'max':>14s} {'iqr/med':>8s}")
        for name in sorted(metrics, key=lambda n: (n not in e2e, n)):
            m = metrics[name]
            spread = (f"{m['iqr_share']:8.3f}" if "iqr_share" in m
                      else f"{'-':>8s}")
            print(f"  {name + (' *' if name in e2e else ''):42s} "
                  f"{m['unit']:>10s} {m['median']:14.4f} {m['min']:14.4f} "
                  f"{m['max']:14.4f} {spread}")
    print("\n* end-to-end metric (bounded in BENCHMARK.json)")


def compare(path_a, path_b, spec):
    """Exits 1 when an end-to-end median of B is worse than A's by more
    than the metric's bound."""
    with open(path_a) as f:
        a = json.load(f)["summary"]
    with open(path_b) as f:
        b = json.load(f)["summary"]
    bad = 0
    print(f"{'workload':14s} {'metric':20s} {'A median':>14s} "
          f"{'B median':>14s} {'worse':>8s} {'bound':>6s}")
    for w in sorted(set(a) | set(b)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in a.get(w, {}) or name not in b.get(w, {}):
                print(f"{w:14s} {name:20s} missing")
                bad += 1
                continue
            va, vb = a[w][name]["median"], b[w][name]["median"]
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            flag = worse > bound
            bad += flag
            print(f"{w:14s} {name:20s} {va:14.4f} {vb:14.4f} {worse:8.3f} "
                  f"{bound:6.2f}{'  WORSE' if flag else ''}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run one workload once")
    ap.add_argument("--only", choices=WORKLOADS,
                    help="suite form: run only this workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="measured seconds (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="record spans and report per-layer metrics")
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--smoke", action="store_true",
                    help="2 s runs of every workload, answer checks only")
    ap.add_argument("--out", help="suite form: result file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.workload:
        return single_run(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
