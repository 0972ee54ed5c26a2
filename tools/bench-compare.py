#!/usr/bin/env python3
"""Compare a Google-Benchmark JSON result against a checked-in baseline.

    tools/bench-compare.py BENCH_4.json [--baseline bench/BENCH_4.baseline.json]
                           [--threshold 0.20] [--normalize BM_Calibration]

Exits non-zero when any benchmark present in both files regressed by more
than the threshold. When the baseline file does not exist the script
passes (first run on a fresh trajectory has nothing to compare against).

Each benchmark's time is its `median` aggregate when the run was repeated
(--benchmark_repetitions), else its plain iteration entry: one sample of
a shared machine moves by tens of percent between back-to-back runs, the
median of several does not.

CI runners and developer machines differ in absolute speed, so raw
nanosecond comparisons across machines are meaningless. Both sides are
therefore normalized by the same reference workload (--normalize)
measured in the same run. The default, BM_Calibration, is a fixed integer
loop that touches no library code, so the compared quantity is "time in
units of this machine's plain CPU speed" and no library change can move
its own yardstick. If the reference workload is missing from either file
the script falls back to raw real_time comparison.
"""

import argparse
import json
import os
import sys


_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """real_time in ns per benchmark: the median aggregate when present,
    else the (last) iteration entry."""
    with open(path) as f:
        data = json.load(f)
    plain, medians = {}, {}
    for b in data.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        t = float(b["real_time"]) * _UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        if b.get("run_type") != "aggregate":
            plain[name] = t
        elif b.get("aggregate_name") == "median":
            medians[name] = t
    plain.update(medians)
    return plain


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly generated benchmark JSON")
    ap.add_argument("--baseline", default="bench/BENCH_4.baseline.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional regression that fails the run")
    ap.add_argument("--normalize", default="BM_Calibration",
                    help="reference workload used to cancel machine speed")
    args = ap.parse_args()

    if not os.path.exists(args.baseline):
        print(f"bench-compare: no baseline at {args.baseline}; passing")
        return 0

    cur = load_times(args.current)
    base = load_times(args.baseline)

    norm_cur = cur.get(args.normalize)
    norm_base = base.get(args.normalize)
    normalized = bool(norm_cur and norm_base)
    if not normalized:
        print(f"bench-compare: reference '{args.normalize}' missing; "
              "comparing raw real_time (machine-sensitive)")

    common = sorted(set(cur) & set(base))
    ungated = sorted(set(cur) - set(base))
    if ungated:
        print("bench-compare: not gated (no baseline entry): "
              + ", ".join(ungated))
    if not common:
        print("bench-compare: no common benchmarks; passing")
        return 0

    failures = []
    print(f"{'benchmark':55s} {'baseline':>12s} {'current':>12s} {'delta':>8s}")
    for name in common:
        c, b = cur[name], base[name]
        if normalized:
            if name == args.normalize:
                continue
            c, b = c / norm_cur, b / norm_base
        delta = (c - b) / b
        flag = " REGRESSED" if delta > args.threshold else ""
        print(f"{name:55s} {b:12.4g} {c:12.4g} {delta:+7.1%}{flag}")
        if delta > args.threshold:
            failures.append((name, delta))

    if failures:
        print(f"\nbench-compare: {len(failures)} benchmark(s) regressed more "
              f"than {args.threshold:.0%}:")
        for name, delta in failures:
            print(f"  {name}: {delta:+.1%}")
        return 1
    print(f"\nbench-compare: OK ({len(common)} benchmarks within "
          f"{args.threshold:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
