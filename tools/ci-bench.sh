#!/usr/bin/env bash
# Release-build benchmark run + regression gate. Mirrors the "bench" CI job:
#
#   tools/ci-bench.sh [build-dir]
#
# Builds the curated benchmark subset in Release, runs each with
# --benchmark_format=json, merges the results into BENCH_4.json (the
# artifact CI uploads per run), and gates with tools/bench-compare.py
# against the checked-in baseline (>20% normalized regression fails).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_step_response --target bench_batch \
  --target bench_sparse_transient --target bench_batch_lockstep \
  --target bench_adc_characterization

# Curated subset: the transient-solver trajectory benchmarks (cached vs
# from-scratch), the compute-only production batch, the sparse-vs-dense MNA
# backend comparison, the lockstep Monte-Carlo screen, and one die's
# full-spec ADC characterization (the lane-batched conversion kernel). Fixed
# iteration counts on the batch keep the job's wall time bounded; the
# sparse/lockstep mains also print their PR-7 acceptance comparisons
# (>= 3x sparse-over-dense, >= 2x lockstep-over-scalar) to the job log.
"$BUILD_DIR"/bench/bench_step_response \
  --benchmark_filter='LinearIntegratorTransient|SingleConversion' \
  --benchmark_format=json --benchmark_out="$BUILD_DIR"/bench_step.json \
  --benchmark_out_format=json > /dev/null
"$BUILD_DIR"/bench/bench_batch \
  --benchmark_format=json --benchmark_out="$BUILD_DIR"/bench_batch.json \
  --benchmark_out_format=json > /dev/null
"$BUILD_DIR"/bench/bench_adc_characterization \
  --benchmark_filter=BM_FullCharacterization \
  --benchmark_format=json --benchmark_out="$BUILD_DIR"/bench_adc.json \
  --benchmark_out_format=json > /dev/null
"$BUILD_DIR"/bench/bench_sparse_transient \
  --benchmark_format=console --benchmark_out="$BUILD_DIR"/bench_sparse.json \
  --benchmark_out_format=json
"$BUILD_DIR"/bench/bench_batch_lockstep \
  --benchmark_format=console --benchmark_out="$BUILD_DIR"/bench_lockstep.json \
  --benchmark_out_format=json

python3 - "$BUILD_DIR"/bench_step.json "$BUILD_DIR"/bench_batch.json \
  "$BUILD_DIR"/bench_adc.json "$BUILD_DIR"/bench_sparse.json \
  "$BUILD_DIR"/bench_lockstep.json <<'EOF'
import json, sys
merged = None
for path in sys.argv[1:]:
    with open(path) as f:
        data = json.load(f)
    if merged is None:
        merged = data
    else:
        merged["benchmarks"].extend(data["benchmarks"])
with open("BENCH_4.json", "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote BENCH_4.json ({len(merged['benchmarks'])} benchmarks)")
EOF

python3 tools/bench-compare.py BENCH_4.json
