#!/usr/bin/env bash
# Plain warning-clean build + full test suite. Mirrors the "build" CI job:
#
#   tools/ci-build.sh [build-dir]
#
# Builds with -Werror (the tree is warning-free and must stay that way),
# runs ctest, then smoke-tests the unified JSON report API: each example's
# --json output must parse.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

cmake -B "$BUILD_DIR" -S . -DMSBIST_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

"$BUILD_DIR"/examples/example_production_test --json | python3 -m json.tool > /dev/null
"$BUILD_DIR"/examples/example_batch_yield 25 --json | python3 -m json.tool > /dev/null
"$BUILD_DIR"/examples/example_testability_report --json | python3 -m json.tool > /dev/null
