#!/usr/bin/env python3
"""Build and run the msbist service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds msbistd and the
msbist libraries from src/) in Release under .bench_build/perfbench; later
runs only re-check the build. The harness's output is passed through; its
last line is the result object. The exit code is non-zero when the build
fails, a verdict mismatches, or the harness fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("lot_fullspec", "lockstep_lot", "campaign_tsrt", "service_small_jobs")


def build():
    """Configure once, then build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_harness"],
                   check=True, stdout=sys.stderr)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        print("perfbench: the msbist sources (src/) are not beside perfbench/", file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    harness = os.path.join(BUILD, "perfbench_harness")
    daemon = os.path.join(BUILD, "msbistd")
    proc = subprocess.run(
        [harness, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--daemon", daemon, "--work-dir", WORK, "--commit", commit()],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the harness printed no result object", file=sys.stderr)
        return 1
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
