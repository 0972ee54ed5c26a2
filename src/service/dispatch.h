// The one entry point every execution surface shares.
//
// service::dispatch(JobRequest) maps the unified core::JobRequest
// envelope onto the engine it names — production::run_batch,
// production::run_batch_lockstep, faults::run_campaign_parallel (with
// static collapsing), or the analysis testability engine — and reduces
// the engine's report to one DispatchResult: the unified core::Outcome,
// the full report JSON document (already carrying the kind /
// schema_version envelope), and, for callers that want to pretty-print
// (the CLI examples), the typed report itself.
//
// The msbistd daemon, the CLI examples, and the loopback tests all go
// through this function, so a job submitted over HTTP runs byte-for-
// byte the same code as the same job invoked from the command line —
// the determinism contracts of the engines (slot-ordered aggregation,
// canonical outcomes) carry over to the wire untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/testability.h"
#include "core/job.h"
#include "core/outcome.h"
#include "core/thread_pool.h"
#include "faults/campaign.h"
#include "faults/collapse.h"
#include "production/batch.h"

namespace msbist::service {

/// One executor slot's checkpoints: (unit index, engine checkpoint
/// document) pairs, in the order the slot tested them.
using SlotCheckpoints = std::vector<std::pair<std::size_t, std::string>>;
/// Called once a slot's checkpoints are written (see unit_complete).
using SlotWritten = std::function<void()>;

/// Executor-provided hooks. All are optional and must be thread-safe:
/// the engines invoke them from worker threads.
struct DispatchHooks {
  /// Polled before the engine claims its next unit of work: each die
  /// (batch), each block of kLockstepBlockDies dies (lockstep), each
  /// fault (campaigns). Returning true makes dispatch wind down early:
  /// units already running finish, later ones never start, and the
  /// result comes back with stopped = true (report discarded). Units
  /// that never ran get no progress tick and no checkpoint.
  core::StopFn should_stop;
  /// Incremental progress: units completed so far / total units, ticked
  /// once per executor slot. With a resume, `done` starts at the
  /// restored-unit count. Lockstep dies complete a block at a time. With
  /// unit_complete set, a slot's tick waits for its `written` call, so it
  /// may come from another thread, after dispatch has returned.
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Checkpoint hook: fired once per executor slot actually executed in
  /// this run — one batch die, one lockstep block of up to
  /// kLockstepBlockDies dies, one campaign fault; never for restored
  /// units — with only that slot's units and their engine checkpoint
  /// documents. The executor journals them as one record for crash
  /// resume and calls `written` exactly once, from any thread, once that
  /// record is written (or will never be): only then do the units count
  /// in progress. `written` stays valid after dispatch returns.
  std::function<void(std::size_t total, SlotCheckpoints units,
                     SlotWritten written)>
      unit_complete;
  /// Prior-run checkpoints to splice instead of re-executing: unit index
  /// -> a checkpoint document a previous unit_complete reported (not owned;
  /// must outlive the dispatch call). Entries that fail to decode or
  /// name a unit past the work list are dropped — that unit simply
  /// re-runs. Unit indexing is per-engine:
  /// batch/lockstep use the die's batch index; campaigns use the
  /// work-item index (universe index, or representative index under
  /// collapse). Applies to batch, lockstep, and campaign kinds;
  /// testability jobs (single indivisible unit) ignore it.
  const std::map<std::size_t, std::string>* resume = nullptr;
};

/// What a job produced. `outcome` is the engine verdict (a failing lot
/// is still a *successfully executed* job); hard execution errors
/// (unknown circuit, solver explosion) throw instead — core::SolverError
/// with a structured Failure, which executors surface as a failed job.
struct DispatchResult {
  core::Outcome outcome;
  std::string report_kind;   ///< e.g. "batch_report"
  std::string report_json;   ///< the full report document
  bool stopped = false;      ///< wound down early via should_stop
  /// Units restored from DispatchHooks::resume instead of re-executed
  /// (0 without a resume).
  std::size_t resumed_units = 0;

  // Typed payloads for in-process callers (exactly one is set, matching
  // the request kind; testability sets both study fields).
  std::optional<production::BatchReport> batch;
  std::optional<faults::CampaignReport> campaign;
  std::optional<analysis::TestabilityReport> testability;
  std::optional<faults::CollapsedUniverse> collapsed;
};

/// Execute a job request synchronously in the calling thread (engines
/// may fan out on their own worker threads per request.threads). Throws
/// core::SolverError(kBadInput) for requests naming unknown tiers /
/// circuits and propagates engine-level SolverErrors.
DispatchResult dispatch(const core::JobRequest& request,
                        const DispatchHooks& hooks = {});

/// Same, against an explicit population for kBatch/kLockstepBatch
/// (daemon path: the registry resolves request.population first).
DispatchResult dispatch(const core::JobRequest& request,
                        const std::vector<production::DieSpec>& population,
                        const DispatchHooks& hooks);

// --- The canonical lockstep settling screen --------------------------
//
// kLockstepBatch maps onto ONE well-known workload so that a job
// submitted over the wire is bit-comparable to a direct library call:
// the bus-fed macro-array screen (94 cells, 98 MNA unknowns, 50 fixed
// steps) with per-die R/C/drive spreads. Both the daemon and the
// acceptance tests build the plan through these helpers.

/// The screen's population: `count` dies whose seeds derive from
/// production::device_seed(batch_seed, i), labels "die <i>".
std::vector<production::DieSpec> lockstep_screen_population(
    std::size_t count, std::uint64_t batch_seed);

/// The screen's LockstepPlan: the array topology, each die's value row
/// (R/C scales and drive amplitude drawn from its seed), the march
/// options and the judge.
production::LockstepPlan lockstep_screen_plan();

/// Resolve wire tier names onto bist::Tier values; empty input means
/// every tier. Throws core::SolverError(kBadInput) on an unknown name.
std::vector<bist::Tier> parse_tiers(const std::vector<std::string>& names);

}  // namespace msbist::service
