#!/usr/bin/env bash
# Release-build benchmark run + regression gate. Mirrors the "bench" CI job:
#
#   tools/ci-bench.sh [build-dir]
#
# Builds the curated benchmark subset in Release, runs each binary with
# $REPS repetitions of every benchmark in random interleaved order (so a
# burst of load from another tenant lands on a few repetitions, not on
# all of one benchmark's), merges the results into BENCH_4.json (the
# artifact CI uploads per run), and gates with tools/bench-compare.py
# against the checked-in baseline: each benchmark's median, divided by
# BM_Calibration's median from the same run, may not grow by more than
# 20%. A benchmark that proves flaky gets more repetitions, never a
# looser threshold.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
REPS=20

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_step_response --target bench_batch \
  --target bench_sparse_transient --target bench_batch_lockstep \
  --target bench_adc_characterization --target bench_transient_detection

# Curated subset: the machine yardstick (BM_Calibration, a fixed integer
# loop outside the library), the transient-solver trajectory benchmarks
# (cached vs from-scratch), the compute-only production batch, one die's
# full-spec ADC characterization (the lane-batched conversion kernel), the
# paper's TSRT fault runs (the only benchmarks that drive a switch-level
# macro with nonlinear MOS devices through the MNA solver), the sparse
# MNA solver on a 98-unknown macro array, and the lockstep Monte-Carlo
# screen. The lockstep main also prints its lockstep-over-scalar gain to
# the job log, and exits non-zero (failing this script) when the scalar
# and lockstep verdicts disagree.
run() {
  local bin="$1" out="$2"
  shift 2
  "$BUILD_DIR"/bench/"$bin" "$@" --benchmark_repetitions="$REPS" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_out="$BUILD_DIR"/"$out" --benchmark_out_format=json
}
run bench_step_response bench_step.json \
  --benchmark_filter='Calibration|LinearIntegratorTransient|SingleConversion' \
  --benchmark_format=json > /dev/null
run bench_batch bench_batch.json --benchmark_format=json > /dev/null
run bench_adc_characterization bench_adc.json \
  --benchmark_filter=BM_FullCharacterization --benchmark_format=json > /dev/null
run bench_transient_detection bench_tsrt.json \
  --benchmark_filter='Circuit1FaultRun|Circuit3FaultRunWithFit' \
  --benchmark_format=json > /dev/null
run bench_sparse_transient bench_sparse.json --benchmark_format=console
run bench_batch_lockstep bench_lockstep.json --benchmark_format=console

python3 - "$BUILD_DIR"/bench_step.json "$BUILD_DIR"/bench_batch.json \
  "$BUILD_DIR"/bench_adc.json "$BUILD_DIR"/bench_tsrt.json \
  "$BUILD_DIR"/bench_sparse.json "$BUILD_DIR"/bench_lockstep.json <<'PY'
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
print(f"wrote BENCH_4.json ({len(merged['benchmarks'])} entries)")
PY

python3 tools/bench-compare.py BENCH_4.json
