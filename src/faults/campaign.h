// Fault-simulation campaigns: run a test procedure against every fault in
// a universe and report coverage.
//
// One engine, run_campaign_parallel, runs the campaign's work items — the
// universe, or only the class representatives under
// CampaignOptions::collapse — on core::for_each_slot, the slot executor
// the lot engines share. Each item's result is written to its own
// pre-assigned slot and the report is assembled in universe order, so the
// outcome fields are identical at any thread count (see
// CampaignReport::canonical_outcomes). run_campaign is the same engine at
// threads = 1: items run inline, in universe order, which makes it the
// in-order reference. Resumed items are spliced into their slots before
// the first claim. Stopping is the executor's: CampaignOptions::stop is
// polled before each claim, and an item that neither was restored nor
// started has no result and fires no hook.
//
// Per-fault failures are isolated. A FaultTestFn that throws the
// typed core::SolverError hierarchy (or the ERC's analysis::ErcError) is
// classified detected_by_failure — a fault so severe the circuit cannot
// even be solved is a detection, not an error — with the structured
// core::Failure preserved in the result. Any other throw is captured as
// {detected=false, errored=true, detail=what()} instead of aborting the
// campaign.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/json_value.h"
#include "core/outcome.h"
#include "core/thread_pool.h"
#include "faults/fault.h"

namespace msbist::faults {

struct CollapsedUniverse;  // faults/collapse.h

/// How one fault test resolved, in precedence order.
enum class FaultOutcome : std::uint8_t {
  kDetected = 0,           ///< the test flagged the fault from its measurements
  kDetectedByFailure = 1,  ///< the faulty circuit failed to solve — itself a detection
  kUndetected = 2,         ///< the test passed the faulty circuit (escape)
  kErrored = 3,            ///< the test threw something outside the taxonomy
  kTimedOut = 4,           ///< timed_out (see FaultResult::timed_out)
};

const char* to_string(FaultOutcome outcome);

/// Outcome of testing one faulty circuit.
struct FaultResult {
  FaultSpec fault;
  bool detected = false;
  double score = 0.0;       ///< technique-specific detection metric
  std::string detail;       ///< free-form diagnostics
  bool errored = false;     ///< the test threw; detail holds what()
  /// Part of the report schema and of journaled checkpoints; the engine
  /// itself never sets it (there is no per-fault wall-clock budget).
  bool timed_out = false;
  /// The faulty circuit made the solver fail hard (SolverError) or
  /// violated the ERC: counted as detected — a macro that cannot even be
  /// simulated consistently would certainly fail on the tester — with the
  /// structured failure preserved below.
  bool detected_by_failure = false;
  bool has_failure = false;      ///< `failure` carries a real payload
  core::Failure failure;         ///< taxonomy record (solver, ERC, timeout)
  double elapsed_seconds = 0.0;  ///< wall time spent testing this fault

  /// Single-enum classification of the flags above.
  FaultOutcome classify() const;

  /// Unified report API: pass means the fault was detected (cleanly or by
  /// solver failure).
  core::Outcome outcome() const;
  void to_json(core::JsonWriter& w) const;
};

struct CampaignReport {
  std::vector<FaultResult> results;  ///< universe order, always
  std::size_t detected_count = 0;    ///< includes detected_by_failure
  std::size_t detected_by_failure_count = 0;
  std::size_t errored_count = 0;
  std::size_t timed_out_count = 0;
  std::size_t threads_used = 1;
  /// Circuits actually solved. Equals results.size() normally; under
  /// CampaignOptions::collapse only class representatives run.
  std::size_t simulated_count = 0;
  /// Solves the static collapse avoided (0 without collapse).
  std::size_t solves_saved = 0;
  /// Faults the collapse proved unable to reach any tap; they never run
  /// and always report undetected.
  std::size_t statically_undetectable_count = 0;
  double wall_seconds = 0.0;  ///< end-to-end campaign wall-clock time
  double cpu_seconds = 0.0;   ///< sum of per-fault elapsed times

  /// Fault coverage = detected / total.
  double coverage() const;
  /// Campaign throughput (faults per wall-clock second).
  double faults_per_second() const;
  /// One-line human summary: counts, coverage, wall time, throughput.
  std::string throughput_summary() const;
  /// Canonical text of the deterministic outcome fields (label, detected,
  /// score, errored, timed_out, detail) plus the aggregate counts. Timing
  /// fields are excluded: for a deterministic FaultTestFn this string is
  /// byte-identical at any thread count.
  std::string canonical_outcomes() const;

  /// Unified report API: pass means full coverage with no errors or
  /// timeouts; detail carries the deterministic counts.
  core::Outcome outcome() const;
  void to_json(core::JsonWriter& w) const;
};

/// The test procedure: given a fault (already chosen), build the faulty
/// circuit, run the test, and report. A nullopt-like "golden" run is the
/// caller's responsibility (compute the fault-free reference once,
/// capture it in the closure).
using FaultTestFn = std::function<FaultResult(const FaultSpec&)>;

/// Completion (and checkpoint) hook: fired with the *work-item index*
/// (universe index, or representative-list index under collapse) and the
/// work-item count after each fault actually simulated in this run —
/// never for items restored from a resume, never for items a stop left
/// unclaimed. With threads > 1 it fires from worker threads concurrently,
/// in scheduling-dependent order; it must be thread-safe.
using FaultCompleteCallback = std::function<void(
    std::size_t index, std::size_t total, const FaultResult& result)>;

/// Already-completed work items from a prior interrupted run of the SAME
/// universe and options, keyed by work-item index (universe index
/// normally; representative-list index under collapse — the same index
/// FaultCompleteCallback reported). Restored items are spliced into
/// their slots before any item runs (core::splice_restored, as the lot
/// engines do) and never re-simulated; for a deterministic test function
/// the resumed report's canonical_outcomes() is bit-identical to an
/// uninterrupted run.
struct CampaignResume {
  std::map<std::size_t, FaultResult> completed;
};

/// One fault's checkpoint payload: the fully typed FaultResult document
/// (unlike device checkpoints there is no verbatim splice — collapse
/// expansion rewrites restored results per member, so the result must be
/// genuinely reconstructable). The decoder throws
/// core::SolverError(kBadInput) on a malformed payload.
std::string encode_fault_checkpoint(const FaultResult& result);
FaultResult decode_fault_checkpoint(const core::JsonValue& v);

struct CampaignOptions {
  /// Worker threads; 0 = hardware concurrency. run_campaign always
  /// runs on one (inline, in universe order).
  std::size_t threads = 0;
  /// Cooperative stop (optional), polled before each work item is
  /// claimed. Once it returns true no further item starts; items already
  /// running finish and fire on_fault_complete. Restored items (`resume`)
  /// are in their slots before the first claim, so a stop never drops
  /// them; an item that was neither restored nor run holds a default
  /// FaultResult, so a caller that stops a campaign must discard the
  /// report unless restored items plus on_fault_complete calls cover the
  /// work list.
  core::StopFn stop;
  /// Static collapse analysis of the *same* universe passed to the engine
  /// (see faults/collapse.h; not owned — must outlive the call). Only
  /// class representatives are simulated; their verdicts expand to every
  /// member, and statically undetectable faults report undetected without
  /// touching the solver. For a class-consistent test function the
  /// report's canonical_outcomes() is bit-identical to the uncollapsed
  /// run. on_fault_complete fires once per representative (total =
  /// representative count). Throws std::invalid_argument on a universe
  /// mismatch.
  const CollapsedUniverse* collapse = nullptr;
  /// Per-work-item completion hook; see FaultCompleteCallback.
  FaultCompleteCallback on_fault_complete;
  /// Prior-run results to splice instead of re-simulating (not owned —
  /// must outlive the call).
  const CampaignResume* resume = nullptr;
};

/// Run the test against every fault in the universe on one thread, in
/// universe order: run_campaign_parallel with options.threads = 1.
CampaignReport run_campaign(const std::vector<FaultSpec>& universe,
                            const FaultTestFn& test);
CampaignReport run_campaign(const std::vector<FaultSpec>& universe,
                            const FaultTestFn& test,
                            const CampaignOptions& options);

/// Run the test against every fault in the universe on options.threads
/// workers. Outcome fields of the report are bit-identical at any thread
/// count for a deterministic test function.
CampaignReport run_campaign_parallel(const std::vector<FaultSpec>& universe,
                                     const FaultTestFn& test,
                                     const CampaignOptions& options = {});

}  // namespace msbist::faults
