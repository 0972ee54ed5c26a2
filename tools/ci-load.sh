#!/usr/bin/env bash
# Load gate: boot a Release msbistd with bounded admission, drive it
# with msbist-loadgen over keep-alive connections at deliberate
# overload, and assert the backpressure contract. Mirrors the "load" CI
# job:
#
#   tools/ci-load.sh [build-dir] [workers] [jobs-per-worker]
#
# Assertions:
#   1. Zero non-429 errors and zero stuck jobs: every accepted job
#      reaches a terminal state; overload never turns into hangs,
#      crashes, or silent drops (loadgen exits non-zero otherwise).
#   2. Admission control actually engaged: the run saw > 0 structured
#      429 rejections (the queue depth is sized to guarantee overload).
#   3. Keep-alive works under load: client-side connection-reuse ratio
#      > 0.9 (each worker should ride one connection, not reconnect).
#   4. Submit latency stays bounded: p99 of accepted submits < 0.5 s.
#   5. The daemon's own books agree: rejected_overload > 0, no 5xx.
#   6. SIGTERM after the storm still drains cleanly and exits 0.
#
# The run report is left in LOADTEST.json (uploaded as a CI artifact).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-load}"
WORKERS="${2:-64}"
JOBS="${3:-200}"

# Release without -Werror, same as the bench gate: GCC 12's libstdc++
# emits a known -Wrestrict false positive at -O2 that would be fatal.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target msbistd msbist-loadgen

log="$(mktemp)"
# The transport is thread-per-connection, so io-threads must cover every
# concurrent keep-alive client; the tiny job queue guarantees sustained
# 429 pressure from WORKERS closed loops over 2 job slots. Retention
# must cover the whole run: with a smaller budget, a poller thread
# descheduled for a few hundred ms (likely with WORKERS client threads
# oversubscribing CI cores) can find its terminal job already evicted.
# Each job retains its request and one-die report, under 2 KiB; the
# budget allows 4 KiB a job.
"$BUILD_DIR"/src/msbistd --port 0 --workers 2 --io-threads "$((WORKERS + 8))" \
  --max-queue-depth 32 --retry-after-s 1 --aging-s 0.5 \
  --retain-mb "$(((WORKERS * JOBS + 64) * 4 / 1024 + 1))" >"$log" 2>&1 &
daemon=$!
trap 'kill -9 "$daemon" 2>/dev/null || true' EXIT

port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^msbistd listening on .*:\([0-9]*\)$/\1/p' "$log")"
  [ -n "$port" ] && break
  kill -0 "$daemon" 2>/dev/null || { cat "$log"; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "msbistd never reported its port"; cat "$log"; exit 1; }

# Exit 1 from loadgen already fails the gate on any non-429 error or
# accepted-but-never-terminal job (assertion 1).
"$BUILD_DIR"/src/msbist-loadgen --port "$port" --workers "$WORKERS" \
  --jobs "$JOBS" --priority mix > LOADTEST.json

python3 - "$WORKERS" "$JOBS" <<'EOF'
import json, sys
workers, jobs = int(sys.argv[1]), int(sys.argv[2])
r = json.load(open("LOADTEST.json"))
assert r["errors"] == 0, f"non-429 errors: {r['errors']}"
assert r["stuck"] == 0, f"jobs never terminal: {r['stuck']}"
assert r["completed"] == workers * jobs, (r["completed"], workers * jobs)
assert r["rejected_429"] > 0, "overload never engaged admission control"
assert r["reuse_ratio"] > 0.9, f"reuse_ratio {r['reuse_ratio']:.3f} <= 0.9"
p99 = r["submit_seconds"]["p99"]
assert p99 < 0.5, f"submit p99 {p99:.3f}s >= 0.5s"
print("load gate: %d jobs, %.0f jobs/s, %d x 429, submit p99 %.1f ms, "
      "reuse %.3f"
      % (r["completed"], r["throughput_jobs_per_s"], r["rejected_429"],
         p99 * 1e3, r["reuse_ratio"]))
EOF

# The daemon's own accounting must agree with the client's (assertion 5).
curl -sSf "http://127.0.0.1:$port/metrics" | python3 -c '
import json, sys
m = json.load(sys.stdin)
c = m["counters"]
assert c["rejected_overload"] > 0, c
assert c["http_responses_5xx"] == 0, c
assert c["reused_connections"] > 0, c
'

# Clean shutdown after the storm: SIGTERM must drain and exit 0.
kill -TERM "$daemon"
wait "$daemon"
trap - EXIT
grep -q "drained, exiting" "$log" || { cat "$log"; exit 1; }
echo "load gate: clean SIGTERM drain, exit 0"
rm -f "$log"
