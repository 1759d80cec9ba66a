#!/usr/bin/env python3
"""Bench regression gate: compare a bench_parallel_join smoke run against
the checked-in baseline and fail on significant slowdowns.

Usage:
    check_bench_regression.py <smoke_log> <baseline_json> [--threshold F]

Both inputs may be raw logs: only lines that parse as a JSON object with a
"bench" key count as records. Records are keyed by every non-metric field
(bench name, thread count, workload shape), so the comparison survives
reordering and interleaved table output.

For throughput metrics (higher is better) the run fails when the new value
drops more than `threshold` below the baseline; for time metrics (lower is
better) when it rises more than `threshold` above it. The default threshold
is 0.25 (25%), wide enough for shared-runner noise while catching real
regressions. A baseline record with no counterpart in the new run is also a
failure (lost coverage); new records absent from the baseline are reported
but pass, so adding benchmarks never blocks CI.

Every compared metric prints its signed drift even on pass (negative =
better than baseline, positive = worse), and the run ends with a
worst-drift summary — so a slow creep toward the threshold is visible in
green CI logs, not just after it finally trips.

Stdlib only — no pip installs in CI.
"""

import argparse
import json
import sys

# Metric direction; every other numeric field is part of the record key.
HIGHER_IS_BETTER = {"probe_rows_per_sec", "speedup", "rows_per_sec",
                    "direct_vs_decode", "tpmc", "committed",
                    "ops_per_sec", "txns_per_sec", "olc_vs_coarse",
                    "scaling_efficiency"}
LOWER_IS_BETTER = {"join_ms",
                   "repl_lag_ms", "merge_lag_ms", "txn_p50_ms", "txn_p99_ms"}
# Tracked counters that vary with any behavior change but have no better/
# worse direction: excluded from the record key, never gated.
NEUTRAL = {"aborted", "cross_shard", "client_retries", "rpc_retries",
           "resolver_retries", "elections", "msgs_dropped"}
METRICS = HIGHER_IS_BETTER | LOWER_IS_BETTER | NEUTRAL

# The scale-out sim metrics run in virtual time, so they are deterministic
# (no shared-runner noise) and get a much tighter gate than the wall-clock
# benches. Note converged/state_equal stay in the record key: a run that
# stops converging is a *missing record*, which fails the gate outright.
THRESHOLD_OVERRIDE = {m: 0.05 for m in
                      ("tpmc", "committed", "repl_lag_ms", "merge_lag_ms",
                       "txn_p50_ms", "txn_p99_ms")}
# bench_tp_scaling cells are short wall-clock runs (hundreds of ms in smoke
# mode) that oversubscribe small CI hosts by design, so raw rates swing far
# more than the long-running join/scan benches; the OLC-vs-coarse ratio and
# the scaling-efficiency metric cancel most host noise and get tighter (but
# still generous) gates. The hard 3x evidence lives in the olc_vs_coarse
# baseline rows: a drop below ~2x at 8 threads fails here even on hosts
# where the bench's own host-aware bar relaxed to 2x.
THRESHOLD_OVERRIDE.update({"ops_per_sec": 0.5, "txns_per_sec": 0.5,
                           "olc_vs_coarse": 0.35, "scaling_efficiency": 0.5})


def parse_records(path):
    """Extract JSON bench records from a (possibly mixed) log file."""
    records = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict) or "bench" not in obj:
                continue
            key = tuple(
                sorted((k, v) for k, v in obj.items() if k not in METRICS)
            )
            records[key] = {k: v for k, v in obj.items() if k in METRICS}
    return records


def describe(key):
    return ", ".join(f"{k}={v}" for k, v in key)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("smoke_log", help="new run (raw log or JSON lines)")
    ap.add_argument("baseline", help="checked-in baseline JSON lines")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    args = ap.parse_args()

    new = parse_records(args.smoke_log)
    base = parse_records(args.baseline)
    if not base:
        print(f"ERROR: no bench records in baseline {args.baseline}")
        return 2
    if not new:
        print(f"ERROR: no bench records in smoke log {args.smoke_log}")
        return 2

    failures = []
    drifts = []  # (drift, metric, key, arrow) for the worst-drift summary
    for key, base_metrics in sorted(base.items()):
        if key not in new:
            failures.append(f"missing record ({describe(key)})")
            continue
        for metric, base_val in sorted(base_metrics.items()):
            if metric not in new[key] or metric in NEUTRAL or not base_val:
                continue
            new_val = new[key][metric]
            threshold = THRESHOLD_OVERRIDE.get(metric, args.threshold)
            # Normalized drift: positive = worse than baseline regardless of
            # the metric's direction, negative = better.
            if metric in HIGHER_IS_BETTER:
                drift = (base_val - new_val) / base_val
            else:
                drift = (new_val - base_val) / base_val
            arrow = f"{base_val:g} -> {new_val:g}"
            drifts.append((drift, metric, key, arrow))
            status = "FAIL" if drift > threshold else "ok"
            print(f"[{status}] {metric} ({describe(key)}): {arrow} "
                  f"(drift {drift:+.1%}, allowed +{threshold:.0%})")
            if drift > threshold:
                failures.append(f"{metric} ({describe(key)}): {arrow} "
                                f"(drift {drift:+.1%})")

    for key in sorted(new.keys() - base.keys()):
        print(f"[new ] unbaselined record ({describe(key)})")

    if drifts:
        worst = max(drifts)
        best = min(drifts)
        print(f"\nworst drift: {worst[0]:+.1%} {worst[1]} "
              f"({describe(worst[2])}): {worst[3]}")
        print(f"best  drift: {best[0]:+.1%} {best[1]} "
              f"({describe(best[2])}): {best[3]}")

    if failures:
        print(f"\nBench regression gate FAILED ({len(failures)} issue(s)):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nBench regression gate passed "
          f"({len(drifts)} metric(s) compared).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
