#!/usr/bin/env bash
# Crash-recovery gate: boot a Release msbistd on a --state-dir journal,
# submit a lot-scale job, SIGKILL the daemon mid-job, restart it on the
# same state directory, and assert the recovery contract. Three
# scenarios: a full-spec batch lot (checkpoints land per die), a lockstep
# screen (checkpoints land per lane block), and a fault campaign on the
# switched-capacitor integrator (checkpoints land per fault). Mirrors the
# "crash" CI job:
#
#   tools/ci-crash.sh [build-dir] [dies] [kill-after-dies]
#
# dies / kill-after-dies size the batch scenario. Without dies, the lot
# is sized from a calibration job's measured time per die, run under the
# same daemon settings, so that it runs about LOT_SECONDS (3 s) and the
# SIGKILL lands mid-job whatever a die costs (at least 640 dies). The
# lockstep scenario, a screen on 2 engine threads killed once 2 blocks of
# production::kLockstepBlockDies have landed, is sized the same way (at
# least 16384 dies). Neither lot exceeds core::kMaxDeviceCount. The
# campaign scenario runs the 12-fault sc_integrator_comparator universe
# on 1 engine thread, killed once 3 faults have landed.
#
# Assertions, per scenario (a "unit" is a die, or a fault in a campaign):
#   1. The restarted daemon detects the unclean shutdown, re-admits the
#      interrupted job under its original id, and runs it to completion.
#   2. The resumed report's unit results are identical to an
#      uninterrupted control run of the same job — modulo wall-clock
#      timing only (wall/cpu seconds, per-unit elapsed seconds on
#      re-run units).
#   3. Zero duplicated and zero lost units: exactly one result per die
#      index (every index present), or per fault label.
#   4. The resume measurably beat from-scratch: /metrics shows
#      jobs_recovered and jobs_resumed of 1 and units_resumed at least
#      the kill threshold — the restarted daemon re-ran strictly fewer
#      units than the job holds.
#   5. A second clean restart finds a clean-shutdown marker and the
#      journaled terminal result still queryable (no third execution).
#   6. After that restart the journal segments hold exactly the job ids
#      GET /jobs lists: the daemon's retention decides what the journal
#      keeps.
#
# The verdicts are left in CRASHTEST.json (uploaded as a CI artifact).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-crash}"
# The lot must still be running when the SIGKILL lands, and the first
# progress poll answers about 0.25 s after the submit: a fixed die count
# stops being mid-job once dies get fast enough (a 160-die lot began
# finishing before the kill when a full-spec die took about 1.5 ms on
# one engine thread).
DIES="${2:-}"
KILL_AFTER="${3:-30}"
LOT_SECONDS=3
LOCKSTEP_BLOCK="$(sed -n 's/.*kLockstepBlockDies = \([0-9]*\);.*/\1/p' \
  src/production/batch.h)"
[ -n "$LOCKSTEP_BLOCK" ] || { echo "kLockstepBlockDies not found"; exit 1; }
MAX_DIES_SHIFT="$(sed -n 's/.*kMaxDeviceCount = std::size_t{1} << \([0-9]*\);.*/\1/p' \
  src/core/job.h)"
[ -n "$MAX_DIES_SHIFT" ] || { echo "kMaxDeviceCount not found"; exit 1; }
MAX_DIES=$((1 << MAX_DIES_SHIFT))
STATE_DIR="$(mktemp -d)"

# Release without -Werror, same as the bench/load gates: GCC 12's
# libstdc++ emits a known -Wrestrict false positive at -O2.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target msbistd

daemon=""
log=""
cleanup() {
  [ -n "$daemon" ] && kill -9 "$daemon" 2>/dev/null || true
  rm -rf "$STATE_DIR"
}
trap cleanup EXIT

# Boot one daemon and wait for its port. Sets $daemon, $log, $port.
# Extra arguments are appended to the daemon's command line.
boot() {
  log="$(mktemp)"
  # --fsync-every 1: the crash-test setting — every checkpoint record
  # (one die, lockstep block or fault) is fsync()ed once the journal's
  # writer has written it. A unit counts as done in /jobs progress only
  # once its record is write()n, and a SIGKILL loses nothing written, so
  # every unit a poll reported done before the kill is journaled.
  "$BUILD_DIR"/src/msbistd --port 0 --workers 1 \
    --state-dir "$STATE_DIR" --fsync-every 1 "$@" >"$log" 2>&1 &
  daemon=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^msbistd listening on .*:\([0-9]*\)$/\1/p' "$log")"
    [ -n "$port" ] && break
    kill -0 "$daemon" 2>/dev/null || { cat "$log"; exit 1; }
    sleep 0.1
  done
  [ -n "$port" ] || { echo "msbistd never reported its port"; cat "$log"; exit 1; }
}

await_result() { # await_result PORT ID OUT_FILE
  local p="$1" id="$2" out="$3" state=""
  for _ in $(seq 1 600); do
    state="$(curl -sSf "http://127.0.0.1:$p/jobs/$id" |
      python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
    case "$state" in
      succeeded) curl -sSf "http://127.0.0.1:$p/jobs/$id/result" >"$out"; return 0 ;;
      queued|running) sleep 0.1 ;;
      *) echo "job $id ended $state"; return 1 ;;
    esac
  done
  echo "job $id never finished"; return 1
}

echo "[]" > CRASHTEST.json

# --- Calibration: size each lot from a measured time per die ----------
# calibrate_lot VAR FLOOR JOB_FIELDS: run one calibration job (JOB_FIELDS
# is a job body's members, device_count included) under the same boot as
# the crash runs, and set VAR to the lot that takes about LOT_SECONDS at
# its time per die: at least FLOOR dies, at most MAX_DIES.
calibrate_lot() {
  local var="$1" floor="$2" fields="$3" sized
  rm -rf "$STATE_DIR"; mkdir -p "$STATE_DIR"
  boot
  curl -sSf -X POST "http://127.0.0.1:$port/jobs" \
    -d "{$fields,\"label\":\"crash-calibration\"}" > /dev/null
  await_result "$port" 1 calibration-result.json
  kill -TERM "$daemon"; wait "$daemon" || true
  daemon=""
  sized="$(python3 -c '
import json, math, sys
seconds, floor, cap = float(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
report = json.load(open("calibration-result.json"))["report"]
die_s = report["wall_seconds"] / len(report["devices"])
print(min(max(floor, math.ceil(seconds / die_s)), cap))
' "$LOT_SECONDS" "$floor" "$MAX_DIES")"
  rm -f calibration-result.json
  printf -v "$var" '%s' "$sized"
}

if [ -z "$DIES" ]; then
  calibrate_lot DIES 640 \
    '"kind":"batch","device_count":200,"batch_seed":776,"full_spec":true,"threads":1'
  echo "crash gate: batch lot sized to $DIES dies (about $LOT_SECONDS s of work)"
fi
calibrate_lot LOCKSTEP_DIES 16384 \
  '"kind":"lockstep_batch","device_count":16384,"batch_seed":776,"threads":2'
echo "crash gate: lockstep lot sized to $LOCKSTEP_DIES dies (about $LOT_SECONDS s of work)"

# crash_scenario NAME JOB_BODY UNITS KILL_AFTER [daemon args...]
crash_scenario() {
  local name="$1" body="$2" dies="$3" kill_after="$4"
  shift 4

  # --- Control: the same lot, uninterrupted --------------------------
  rm -rf "$STATE_DIR"; mkdir -p "$STATE_DIR"
  boot "$@"
  curl -sSf -X POST "http://127.0.0.1:$port/jobs" -d "$body" > /dev/null
  await_result "$port" 1 control-result.json
  kill -TERM "$daemon"; wait "$daemon" || true
  daemon=""
  rm -rf "$STATE_DIR"; mkdir -p "$STATE_DIR"

  # --- Crash run: SIGKILL mid-job ------------------------------------
  boot "$@"
  curl -sSf -X POST "http://127.0.0.1:$port/jobs" -d "$body" > /dev/null
  local done_dies=0
  for _ in $(seq 1 600); do
    done_dies="$(curl -sSf "http://127.0.0.1:$port/jobs/1" |
      python3 -c 'import json,sys; print(json.load(sys.stdin)["progress"]["done"])')"
    [ "$done_dies" -ge "$kill_after" ] && break
    sleep 0.05
  done
  [ "$done_dies" -ge "$kill_after" ] || {
    echo "$name: job never reached $kill_after units (at $done_dies)"; exit 1; }
  kill -9 "$daemon"
  wait "$daemon" 2>/dev/null || true
  daemon=""
  echo "crash gate ($name): SIGKILLed mid-job at $done_dies/$dies units"

  # --- Restart on the same state dir: recover, resume, complete ------
  boot "$@"
  grep -q "unclean shutdown detected" "$log" || {
    echo "$name: restarted daemon did not report the unclean shutdown"
    cat "$log"; exit 1; }
  await_result "$port" 1 resumed-result.json
  curl -sSf "http://127.0.0.1:$port/metrics" > resumed-metrics.json
  curl -sSf "http://127.0.0.1:$port/healthz" > resumed-healthz.json

  python3 - "$name" "$dies" "$kill_after" <<'EOF'
import json, sys
name, dies, kill_after = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

# Lots report a "devices" array keyed by die index; campaigns report a
# "results" array keyed by fault label.
def units(report):
    return report["devices"] if "devices" in report else report["results"]

def canon(path):
    report = json.load(open(path))["report"]
    for k in ("wall_seconds", "cpu_seconds", "devices_per_second"):
        report.pop(k, None)
    for u in units(report):
        u.pop("elapsed_seconds", None)
    return report

control, resumed = canon("control-result.json"), canon("resumed-result.json")
if "devices" in resumed:
    keys = [d["index"] for d in resumed["devices"]]
    expected = list(range(dies))
else:
    keys = [r["label"] for r in resumed["results"]]
    expected = [r["label"] for r in control["results"]]
assert len(keys) == dies, f"lost units: {len(keys)}/{dies}"
assert len(set(keys)) == dies, "duplicated units after resume"
assert sorted(keys) == sorted(expected), "unit set differs from the control's"
assert resumed == control, "resumed report differs from uninterrupted control"

m = json.load(open("resumed-metrics.json"))
c, g = m["counters"], m["gauges"]
assert c["jobs_recovered"] == 1, c
assert c["jobs_resumed"] == 1, c
resumed_units = c["units_resumed"]
assert kill_after <= resumed_units < dies, \
    f"units_resumed {resumed_units} not in [{kill_after}, {dies})"
assert g["journal_bytes"] > 0 and g["journal_segments"] >= 1, g

h = json.load(open("resumed-healthz.json"))["recovery"]
assert h["clean_shutdown"] is False and h["resumed_jobs"] == 1, h

verdicts = json.load(open("CRASHTEST.json"))
verdicts.append({
    "kind": "crash_test",
    "scenario": name,
    "dies": dies,
    "killed_after_dies": kill_after,
    "units_resumed": resumed_units,
    "dies_retested": dies - resumed_units,
    "journal_bytes": g["journal_bytes"],
    "journal_segments": g["journal_segments"],
    "journal_degraded": c.get("journal_degraded", 0),
    "report_identical_modulo_timing": True,
})
json.dump(verdicts, open("CRASHTEST.json", "w"), indent=2)
print("crash gate (%s): resumed %d/%d units from checkpoints, re-ran %d, "
      "report identical to control" % (name, resumed_units, dies, dies - resumed_units))
EOF

  # --- Second restart: clean drain leaves nothing to redo ------------
  kill -TERM "$daemon"; wait "$daemon" || true
  daemon=""
  boot "$@"
  if grep -q "unclean shutdown detected" "$log"; then
    echo "$name: clean drain did not write the shutdown marker"; cat "$log"; exit 1
  fi
  local state
  state="$(curl -sSf "http://127.0.0.1:$port/jobs/1" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  [ "$state" = "succeeded" ] || { echo "$name: journaled result lost: $state"; exit 1; }
  local listed
  listed="$(curl -sSf "http://127.0.0.1:$port/jobs")"
  python3 - "$name" "$STATE_DIR" "$listed" <<'EOF'
import glob, json, sys
name, state_dir, listed = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
journaled = set()
for path in glob.glob(state_dir + "/journal-*.wal"):
    for line in open(path):
        if line.strip():
            record = json.loads(line[9:])  # "<crc32-hex> <payload>"
            if "id" in record:
                journaled.add(record["id"])
held = {job["id"] for job in listed["jobs"]}
assert journaled == held, \
    f"{name}: journal holds jobs {sorted(journaled)}, daemon lists {sorted(held)}"
EOF
  kill -TERM "$daemon"; wait "$daemon" || true
  daemon=""
  echo "crash gate ($name): journaled result survives a clean restart," \
    "and the journal holds exactly the listed jobs"
}

crash_scenario batch \
  "{\"kind\":\"batch\",\"device_count\":$DIES,\"batch_seed\":777,\
\"full_spec\":true,\"threads\":1,\"label\":\"crash-lot\",\
\"idempotency_key\":\"crash-gate-lot\"}" \
  "$DIES" "$KILL_AFTER"

crash_scenario lockstep \
  "{\"kind\":\"lockstep_batch\",\"device_count\":$LOCKSTEP_DIES,\
\"batch_seed\":778,\"threads\":2,\"label\":\"crash-screen\",\
\"idempotency_key\":\"crash-gate-screen\"}" \
  "$LOCKSTEP_DIES" "$((2 * LOCKSTEP_BLOCK))"

# Campaign checkpoints land one per fault on one engine thread; a fault
# counts as done once its record is written (and boot's --fsync-every 1
# fsyncs each).
crash_scenario campaign \
  "{\"kind\":\"fault_campaign\",\"circuit\":\"sc_integrator_comparator\",\
\"threads\":1,\"label\":\"crash-campaign\",\
\"idempotency_key\":\"crash-gate-campaign\"}" \
  12 3
