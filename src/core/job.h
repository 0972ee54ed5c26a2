// The unified job-request envelope: one wire type that names every
// long-running workload the repo can execute.
//
// Before this, each engine had its own entry point and its own ad-hoc
// CLI: production::run_batch, production::run_batch_lockstep,
// faults::run_campaign[_parallel], analysis::analyze_testability. The
// JobRequest envelope is the single description a caller — the msbistd
// daemon, a CLI example, a test — hands to service::dispatch(), which
// maps it onto the right engine and returns the unified
// Outcome/to_json report. CLI and daemon therefore share one code path.
//
// The envelope is deliberately plain data (strings, integers, bools):
// it round-trips through the JSON wire format (from_json/to_json) and
// carries no callbacks or engine types. Field semantics by kind:
//
//   batch           device_count, batch_seed (or population), tiers,
//                   full_spec, fault_spot_check, threads
//   lockstep_batch  device_count, batch_seed (or population): the
//                   canonical lockstep settling screen
//                   (service::lockstep_screen_plan)
//   fault_campaign  circuit, collapse, max_faults, threads
//   testability     circuit
//
// Per-job resource limits (JobLimits) are enforced by the executor:
// wall_timeout_s cooperatively cancels an overrunning job with a
// kTimeout Failure; max_threads caps the engine's worker fan-out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/json_value.h"

namespace msbist::core {

/// Version of the job-request and report wire schema. Every to_json()
/// report and every request envelope carries it so daemon clients can
/// version-negotiate. v1 was the implicit PR-3 format (no envelope);
/// v2 adds the top-level kind/schema_version pair everywhere.
inline constexpr std::uint32_t kSchemaVersion = 2;

/// Stamp the standard report envelope onto a just-opened JSON object:
/// w.begin_object() must be the immediately preceding call.
inline JsonWriter& write_report_envelope(JsonWriter& w, std::string_view kind) {
  return w.member("kind", kind).member("schema_version", kSchemaVersion);
}

/// Every workload the dispatcher can execute.
enum class JobKind : std::uint8_t {
  kBatch = 0,          ///< production::run_batch over a Monte-Carlo population
  kLockstepBatch = 1,  ///< production::run_batch_lockstep settling screen
  kFaultCampaign = 2,  ///< faults::run_campaign[_parallel] on a paper circuit
  kTestability = 3,    ///< analysis::analyze_testability + faults::collapse
};

const char* to_string(JobKind kind);
/// Parses the wire name ("batch", "lockstep_batch", "fault_campaign",
/// "testability"). Throws SolverError(kBadInput) on an unknown name.
JobKind parse_job_kind(const std::string& name);

/// Scheduling class of a job. Executors dispatch higher priorities
/// first; anti-starvation aging promotes long-queued jobs one level per
/// aging interval so a saturated high-priority stream cannot starve the
/// low lane forever.
enum class JobPriority : std::uint8_t {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

const char* to_string(JobPriority priority);
/// Parses the wire name ("low", "normal", "high"). Throws
/// SolverError(kBadInput) on an unknown name.
JobPriority parse_job_priority(const std::string& name);

/// Per-job resource limits, enforced by the executing JobManager.
struct JobLimits {
  /// Wall-clock budget [s]; 0 = unlimited. An overrunning job is
  /// cooperatively cancelled and fails with a kTimeout Failure.
  double wall_timeout_s = 0.0;
  /// Cap on engine worker threads; 0 = no per-job cap (the manager's
  /// own cap still applies).
  std::size_t max_threads = 0;

  void to_json(JsonWriter& w) const;
};

/// Largest device_count that POST /jobs and POST /populations accept.
/// The engines allocate the whole population and one result slot per die
/// up front (under 1 KB per die), so one lot stays near 240 MB.
inline constexpr std::size_t kMaxDeviceCount = std::size_t{1} << 18;

struct JobRequest {
  JobKind kind = JobKind::kBatch;
  std::string label;  ///< free-form tag echoed through status/results
  /// Scheduling class; the executor's dispatch queue serves high before
  /// normal before low (with aging, see service::JobManagerOptions).
  JobPriority priority = JobPriority::kNormal;
  /// Who is submitting (free-form). The executor keeps per-tag fairness
  /// accounting and can cap any one tag's share of the admission queue.
  std::string client_tag;
  /// Client-chosen deduplication token. A resubmit carrying a key the
  /// executor has already accepted returns the existing job's id instead
  /// of running the lot twice — the safe-retry contract for clients
  /// whose 202 response was dropped by the network. Empty = no dedup.
  std::string idempotency_key;

  // batch / lockstep_batch
  std::size_t device_count = 10;
  std::uint64_t batch_seed = 1995;
  /// Name of a registered device population; empty = derive the
  /// population from device_count/batch_seed.
  std::string population;
  /// BIST tier names for kBatch ("analog", "ramp", "digital",
  /// "compressed"); empty = all tiers.
  std::vector<std::string> tiers;
  bool full_spec = false;
  bool fault_spot_check = false;

  // fault_campaign / testability
  /// "op1_follower" or "sc_integrator_comparator".
  std::string circuit = "op1_follower";
  bool collapse = true;  ///< statically collapse the universe first
  /// Truncate the fault universe to its first N faults; 0 = all.
  std::size_t max_faults = 0;

  /// Engine worker threads (run_batch / run_campaign_parallel);
  /// 1 = serial, 0 = hardware concurrency. Clamped by limits.
  std::size_t threads = 1;

  JobLimits limits;

  /// Decode a request from its parsed wire form. Unknown fields are
  /// rejected (a misspelled limit silently ignored would be a trap), as
  /// are wrong types and out-of-range values; all such problems throw
  /// SolverError with a kBadInput Failure whose detail names the field.
  static JobRequest from_json(const JsonValue& v);
  /// Convenience: parse_json + from_json. JsonParseError from malformed
  /// text is mapped onto the same kBadInput taxonomy.
  static JobRequest from_json_text(std::string_view text);

  void to_json(JsonWriter& w) const;
};

}  // namespace msbist::core
