// Production batch-test engine: the paper's "batch of 10 devices" scaled
// to thousands of Monte-Carlo virtual dies.
//
// A batch is defined by a batch seed and a device count: device i is
// fabricated with process variation drawn from a seed derived via a
// splitmix64 mix of (batch_seed, i), so the population is reproducible
// and every die is statistically independent. Each die runs a TestPlan —
// BIST tiers through the generic bist::run_tier, optionally the
// full-spec AdcMetrics sweep and a fault-injection spot check — and the
// engine aggregates a BatchReport: per-device outcomes, yield,
// parametric distributions, and which devices fail which tier.
//
// Execution runs on core::for_each_slot with the same determinism
// contract as faults::run_campaign_parallel: every device owns a
// pre-assigned result slot, aggregation walks slots in batch order, and
// timing fields are excluded from canonical_outcomes() — so the report's
// outcome fields are bit-identical at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "adc/dual_slope.h"
#include "adc/metrics.h"
#include "bist/controller.h"
#include "circuit/batch_transient.h"
#include "core/error.h"
#include "core/json_value.h"
#include "core/outcome.h"
#include "core/thread_pool.h"
#include "production/plan.h"
#include "production/stats.h"

namespace msbist::production {

/// One die of a population: its variation seed and the base
/// (design-intent) configuration variation is drawn against. Hand-built
/// populations (e.g. known-bad dies for yield-math tests) set config
/// directly; make_population derives uniform ones from a BatchConfig.
struct DieSpec {
  std::uint64_t seed = 1;
  adc::DualSlopeAdcConfig config;
  std::string label;
};

/// Result of the BIST-testability spot check on one device.
///
/// The injection menu is statically collapsed before anything runs
/// (faults::CollapseMap over canonical fault signatures): duplicate
/// injections — the same digital mutation written two ways — share one
/// simulated clone, and injections that cannot move any visible output
/// bit (a stuck bit at or above the datapath width) are statically
/// undetectable and never simulated.
struct SpotCheckResult {
  std::size_t injected = 0;      ///< menu size (before collapsing)
  std::size_t detected = 0;      ///< detectable injections the BIST flagged
  std::size_t simulated = 0;     ///< clones actually run (class reps)
  std::size_t undetectable = 0;  ///< statically invisible injections
  std::vector<std::string> missed;  ///< undetected *detectable* injections
  std::vector<std::string> undetectable_labels;

  /// Pass = every statically detectable injection was detected.
  bool pass() const { return detected == injected - undetectable; }
  void to_json(core::JsonWriter& w) const;
};

/// Everything the plan measured on one device.
struct DeviceOutcome {
  std::size_t index = 0;      ///< position in the batch
  std::uint64_t seed = 0;
  std::string label;

  std::vector<bist::Tier> tiers_run;
  bist::BistReport bist;      ///< slots for tiers not in the plan stay default
  std::vector<bist::Tier> failed_tiers;  ///< subset of tiers_run

  bool has_metrics = false;
  adc::AdcMetrics metrics;
  core::Outcome spec{true, ""};        ///< metrics vs plan limits

  bool spot_check_run = false;
  SpotCheckResult spot_check;

  /// True when testing this die hit a hard failure (solver, ERC, or an
  /// exception escaping a plan stage) yet still produced a verdict: the
  /// engine degrades the die to a structured fail instead of aborting the
  /// batch. `failures` holds the per-die taxonomy records (bist tier
  /// diagnostics plus any stage-level captures).
  bool degraded = false;
  std::vector<core::Failure> failures;

  core::Outcome outcome;      ///< overall verdict for this device
  double elapsed_seconds = 0.0;  ///< timing; excluded from canonical text

  /// Set only on outcomes restored from a checkpoint: the original run's
  /// device document (the checkpoint itself), spliced verbatim by to_json
  /// so a resumed BatchReport's devices array is byte-identical to the
  /// uninterrupted run's (decode_device_checkpoint restores the typed
  /// fields aggregation and canonical_outcomes read from it).
  std::string restored_json;

  void to_json(core::JsonWriter& w) const;
};

struct BatchConfig {
  std::size_t device_count = 10;
  std::uint64_t batch_seed = 1995;
  /// Worker threads: 0 = hardware concurrency, 1 = serial in-thread.
  std::size_t threads = 1;
  adc::DualSlopeAdcConfig base = adc::DualSlopeAdcConfig::characterized();
  TestPlan plan;
};

struct BatchReport {
  std::vector<DeviceOutcome> devices;  ///< batch order, always
  std::size_t passed = 0;
  /// Dies whose testing degraded (DeviceOutcome::degraded): they count as
  /// failing for yield but the batch itself completed.
  std::size_t degraded_count = 0;
  std::size_t threads_used = 1;
  double wall_seconds = 0.0;  ///< end-to-end batch wall-clock time
  double cpu_seconds = 0.0;   ///< sum of per-device elapsed times

  /// Device indices failing each tier (indexed by Tier value); only
  /// tiers the plan actually ran contribute.
  std::array<std::vector<std::size_t>, bist::kAllTiers.size()> tier_failures;

  // Parametric distributions over devices with full-spec metrics.
  ParamStats offset_lsb;
  ParamStats gain_error_lsb;
  ParamStats max_abs_inl;
  ParamStats max_abs_dnl;
  // Distributions over the BIST observables (devices that ran the tier).
  ParamStats conversion_time_s;     ///< digital tier worst conversion
  ParamStats first_step_fall_time_s;  ///< analog tier, 0 V step (2.6 ms nom)

  double yield() const;
  /// Throughput in devices per wall-clock second.
  double devices_per_second() const;
  /// One-line human summary: yield, counts, wall time, throughput.
  std::string summary() const;
  /// Canonical text of every deterministic field (per-device outcomes,
  /// metrics at full precision, aggregates). Timing is excluded: for a
  /// given population and plan this string is byte-identical at any
  /// thread count.
  std::string canonical_outcomes() const;

  /// Unified report API: pass means every device passed.
  core::Outcome outcome() const;
  void to_json(core::JsonWriter& w) const;
};

/// Per-device seed derivation: splitmix64 over (batch_seed, index),
/// forced nonzero (seed 0 is the reserved no-variation die).
std::uint64_t device_seed(std::uint64_t batch_seed, std::size_t index);

/// The Monte-Carlo population a BatchConfig describes.
std::vector<DieSpec> make_population(const BatchConfig& cfg);

/// The paper's fabricated lot of 10 dies (lot seed 1995, die seeds
/// 1996..2005: die i is seeded lot_seed + i + 1), as a population.
std::vector<DieSpec> paper_population();

/// Test a single die under a plan (the parallel engine's unit of work;
/// exposed for tests and for screening one device interactively).
DeviceOutcome test_device(const DieSpec& spec, const TestPlan& plan);

/// Customization point for the per-device procedure: production-floor
/// models wrap test_device with tester overheads (socket insertion,
/// instrument settling); tests substitute canned outcomes. Must be
/// thread-safe for threads > 1 and deterministic for a reproducible
/// report.
using DeviceTestFn = std::function<DeviceOutcome(const DieSpec&, const TestPlan&)>;

/// Invoked once per executor slot that finished testing — one die under
/// run_batch, one lane block under run_batch_lockstep — with exactly the
/// dies that slot tested, each carrying its batch index (never dies
/// restored from a resume, never dies a stop left untested): the
/// executor's checkpoint hook, so one slot journals as one record.
/// Called from engine worker threads — must be thread-safe.
using DeviceCompleteFn =
    std::function<void(std::span<const DeviceOutcome> slot)>;

/// Already-completed dies from a prior interrupted run of the SAME
/// population and plan, keyed by batch index. The engines splice these
/// into their slots without re-testing; with deterministic seeding the
/// resumed report's outcome fields are bit-identical to an
/// uninterrupted run (timing fields carry the original run's values).
struct BatchResume {
  std::map<std::size_t, DeviceOutcome> completed;
};

/// One die's checkpoint payload is exactly its report entry
/// (DeviceOutcome::to_json). The decoder reads back the typed fields
/// aggregation and canonical_outcomes need and keeps the document for
/// to_json to splice verbatim; it throws core::SolverError(kBadInput) on
/// anything else (including the two-part {"canon","data"} shape earlier
/// daemons journaled, so such a die re-runs).
std::string encode_device_checkpoint(const DeviceOutcome& outcome);
DeviceOutcome decode_device_checkpoint(const core::JsonValue& v);

/// Fabricate-and-test an explicit population. threads as in BatchConfig;
/// test_fn defaults to test_device. Per-die exceptions are isolated: a
/// test_fn that throws (typed core::SolverError or anything else) yields
/// a degraded failing DeviceOutcome carrying the Failure record, never an
/// aborted batch. `resume` (optional) pre-fills the listed slots and
/// skips testing them; `on_complete` fires after each die actually
/// tested in this run, with that one die; `stop` (optional) is polled
/// before each die.
///
/// Stop semantics (both lot engines): once `stop` returns true no
/// further unit (die, or lane block under run_batch_lockstep) starts;
/// units already running finish and fire DeviceCompleteFn. Slots of
/// units that never ran stay default-constructed, so a caller that
/// stops a lot must discard the report unless every die completed
/// (restored dies plus the dies DeviceCompleteFn reported cover the
/// population).
BatchReport run_batch(const std::vector<DieSpec>& population,
                      const TestPlan& plan, std::size_t threads = 1,
                      const DeviceTestFn& test_fn = {},
                      const BatchResume* resume = nullptr,
                      const DeviceCompleteFn& on_complete = {},
                      const core::StopFn& stop = {});

/// make_population + run_batch.
BatchReport run_batch(const BatchConfig& cfg);

/// A lockstep production screen: the lot's circuit, each die's element
/// values, how to march the population, and how to judge the waveforms.
///
/// The contract mirrors DeviceTestFn — one die in, one verdict out — but
/// the middle runs through circuit::BatchTransient. Every die shares ONE
/// topology (same nodes, same elements); a die is only a row of element
/// values (circuit::set_values), which the engine writes into lane
/// netlists it builds once and reuses. The population is simulated in
/// lockstep lane blocks, and evaluate() scores each die's waveforms into
/// its DeviceOutcome. values() and evaluate() run on engine worker
/// threads when threads > 1 and must be thread-safe.
struct LockstepPlan {
  /// Build the lot's nodes and elements into the (empty) netlist. Values
  /// are placeholders: every die's row overwrites each value slot.
  std::function<void(circuit::Netlist&)> topology;
  /// Die `spec`'s value row: one entry per value slot of topology()'s
  /// netlist, in element order. The engine fills the row with NaN first,
  /// so a slot left unwritten fails the lot instead of keeping another
  /// die's value.
  std::function<void(const DieSpec&, std::span<double> row)> values;
  circuit::BatchTransientOptions transient;
  /// Judge one die's simulated waveforms, read in place from its block's
  /// shared waveform slab (circuit::LaneWaveforms; a scalar transient can
  /// be judged through LaneWaveforms(result)). Exceptions degrade the die
  /// (structured failing outcome), never the batch.
  std::function<core::Outcome(const DieSpec&, const circuit::LaneWaveforms&)>
      evaluate;

  /// Die `spec` as a standalone netlist: topology() into the (empty)
  /// netlist, then the die's row. For scalar references and one-off
  /// marches; run_batch_lockstep never builds a netlist per die.
  void build(const DieSpec& spec, circuit::Netlist& netlist) const;
};

/// Dies per lockstep block. Memory and per-die cost stay flat in lot
/// size because no block outgrows the cache; DESIGN.md §13 records the
/// block-size measurement behind the value.
inline constexpr std::size_t kLockstepBlockDies = 32;

/// Fabricate-and-screen a population in lockstep. Produces the same
/// BatchReport shape as run_batch (ordered slots, deterministic
/// aggregation); dies whose lane failed (typed solver failure) or whose
/// evaluate() threw are degraded failing outcomes, exactly like a
/// DeviceTestFn that threw under run_batch. Throws std::invalid_argument
/// when a die's row is malformed — a slot values() left unwritten, or any
/// other non-finite or out-of-range value — and core::SingularMatrixError
/// when a die's matrix defeats even private re-pivoting (see
/// circuit/batch_transient.h); with several failing blocks, the lowest
/// block's error is the one thrown.
///
/// The dies still to test (the "live" dies: population order, restored
/// dies excluded) march in blocks of kLockstepBlockDies, one
/// core::for_each_slot unit each, on `threads` workers (0 = hardware
/// concurrency). A block takes a lane set — kLockstepBlockDies + 1
/// netlists built from topology(), and a row buffer — from a free list
/// local to the call, building one only when none is free, so at most
/// `threads` sets exist and none outlives the call. It writes each of
/// its dies' rows into a lane, runs one circuit::BatchTransient march,
/// evaluates, fires `on_complete` once with all of its dies, and returns
/// the set: engine memory is bounded by the block size times the thread
/// count, not by the lot. Every block marches with the first live die's
/// row, computed once per lot, in its lane 0 (a leader lane, discarded in
/// every block but the first): lane 0 defines the pivot sequence all
/// lanes replay, so each die's waveforms — and the report — are
/// byte-identical to one march over every live die at once, at any
/// thread count. The ERC runs once per lot, in the first block.
/// `cpu_seconds` sums the blocks' own times: lane-set build (in the
/// blocks that build one), row writes, march and evaluation.
///
/// Resume and stop semantics: dies listed in `resume` are never written
/// or marched; their restored outcomes are spliced into the report.
/// `stop` is polled before each block is claimed. A block is atomic —
/// its checkpoint (`on_complete`) fires only once the whole block has
/// been marched and evaluated, so a crash or stop mid-block re-tests that
/// block's dies on resume, never half a march.
BatchReport run_batch_lockstep(const std::vector<DieSpec>& population,
                               const LockstepPlan& plan,
                               const BatchResume* resume = nullptr,
                               const DeviceCompleteFn& on_complete = {},
                               std::size_t threads = 1,
                               const core::StopFn& stop = {});

}  // namespace msbist::production
