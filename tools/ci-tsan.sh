#!/usr/bin/env bash
# ThreadSanitizer gate for the parallel engines. Mirrors the "tsan" CI
# job:
#
#   tools/ci-tsan.sh [build-dir]
#
# Builds the tree with MSBIST_SANITIZE=thread (wired in the top-level
# CMakeLists) and runs the concurrency-relevant tests: the fault/campaign
# suites, the production batch engine (including the cross-thread-count
# determinism test), the core slot-executor tests, the sparse/lockstep
# batch engines (shared factorizations consumed across lanes), the
# service stack (keep-alive HTTP workers, bounded-admission dispatch),
# and the durability layer (journal appends from worker threads,
# checkpointed resume, recovery). Any race report is fatal.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DMSBIST_SANITIZE=thread -DMSBIST_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R '^(Campaign|CampaignParallel|CollapsedCampaign|Collapse|CollapseMap|Universe|SiteUniverse|Inject|ForEachSlot|Production|SparseMatrix|SparseLu|BatchSparseLu|SparseBackend|BatchTransient|RunBatchLockstep|Service|KeepAlive|Admission|Durability|Journal|JobManager|Resume)\.'
