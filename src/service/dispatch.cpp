#include "service/dispatch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <utility>

#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "core/error.h"
#include "core/thread_pool.h"
#include "faults/universe.h"
#include "tsrt/detector.h"
#include "tsrt/example_circuits.h"
#include "tsrt/transient_test.h"

namespace msbist::service {

namespace {

[[noreturn]] void bad_request(std::string detail) {
  core::Failure f;
  f.code = core::ErrorCode::kBadInput;
  f.analysis = "dispatch";
  f.detail = std::move(detail);
  core::throw_failure(std::move(f));
}

/// Resolve the effective engine thread count: 0 means hardware
/// concurrency, then the per-job cap clamps.
std::size_t effective_threads(const core::JobRequest& req) {
  std::size_t t = req.threads == 0 ? core::default_thread_count() : req.threads;
  if (req.limits.max_threads > 0 && t > req.limits.max_threads) {
    t = req.limits.max_threads;
  }
  return t;
}

tsrt::CircuitKind parse_circuit(const std::string& name) {
  if (name == "op1_follower") return tsrt::CircuitKind::kOp1Follower;
  if (name == "sc_integrator_comparator") {
    return tsrt::CircuitKind::kScIntegratorComparator;
  }
  bad_request("unknown circuit \"" + name +
              "\" (expected op1_follower or sc_integrator_comparator)");
}

/// The progress count of one dispatch, shared with the `written`
/// callbacks of its checkpoint hook, which may run after it returns.
class ProgressTally {
 public:
  ProgressTally(std::size_t total,
                std::function<void(std::size_t, std::size_t)> progress)
      : total_(total), progress_(std::move(progress)) {}

  /// `units` more count as done.
  void tick(std::size_t units) {
    const std::size_t done =
        done_.fetch_add(units, std::memory_order_relaxed) + units;
    if (progress_) progress_(done, total_);
  }

 private:
  const std::size_t total_;
  const std::function<void(std::size_t, std::size_t)> progress_;
  std::atomic<std::size_t> done_{0};
};

/// The unit accounting every resumable job shares (lots and campaigns).
/// The resume table keeps only in-range checkpoints that decode — any
/// other unit simply re-runs, a corrupt checkpoint never fails the job.
/// Each executor slot the engine actually runs reports its units'
/// checkpoints together; they tick progress, counting on from the
/// restored units, once the checkpoint hook says they are written (at
/// once without a hook). Units a stop left unrun do neither. A job whose
/// restored plus completed units fall short of the work list returns the
/// explicit "stopped" non-answer, never the partial report. `Resume` is
/// the engine's resume table (production::BatchResume or
/// faults::CampaignResume).
template <typename Resume>
class UnitLedger {
 public:
  using Unit = typename decltype(Resume::completed)::mapped_type;

  UnitLedger(std::size_t total, const DispatchHooks& hooks,
             Unit (*decode)(const core::JsonValue&),
             std::string (*encode)(const Unit&))
      : total_(total),
        hooks_(hooks),
        encode_(encode),
        progress_(std::make_shared<ProgressTally>(total, hooks.progress)) {
    if (hooks.resume != nullptr) {
      for (const auto& [unit, payload] : *hooks.resume) {
        if (unit >= total) continue;
        try {
          resume.completed[unit] = decode(core::parse_json(payload));
        } catch (const std::exception&) {
          // re-run this unit
        }
      }
    }
    done_.store(resume.completed.size(), std::memory_order_relaxed);
    progress_->tick(resume.completed.size());
  }

  /// The restored units, for the engine to splice instead of re-running.
  Resume resume;

  /// The engine ran one executor slot to completion: `units` are its
  /// results, `index_of` maps each to its unit index. Thread-safe.
  template <typename IndexOf>
  void complete(std::span<const Unit> units, IndexOf index_of) {
    done_.fetch_add(units.size(), std::memory_order_relaxed);
    if (!hooks_.unit_complete) {
      progress_->tick(units.size());
      return;
    }
    SlotCheckpoints slot;
    slot.reserve(units.size());
    for (const Unit& u : units) slot.emplace_back(index_of(u), encode_(u));
    hooks_.unit_complete(total_, std::move(slot),
                         [progress = progress_, n = units.size()] {
                           progress->tick(n);
                         });
  }

  /// Record the resumed-unit count in `res`; when the engine returned
  /// short of the work list, also mark it stopped and return false.
  bool settle(DispatchResult& res) const {
    res.resumed_units = resume.completed.size();
    if (done_.load(std::memory_order_relaxed) >= total_) return true;
    res.stopped = true;
    res.outcome = core::Outcome::fail("job stopped before completion");
    return false;
  }

 private:
  std::size_t total_;
  const DispatchHooks& hooks_;
  std::string (*encode_)(const Unit&);
  /// Restored and completed units: what settle() judges.
  std::atomic<std::size_t> done_{0};
  std::shared_ptr<ProgressTally> progress_;
};

/// A lot engine (run_batch or run_batch_lockstep) bound to its request,
/// called with the decoded resume table and the checkpoint hook.
using LotEngine = std::function<production::BatchReport(
    const production::BatchResume&, const production::DeviceCompleteFn&)>;

/// Run a lot engine under the executor hooks and the shared unit
/// accounting.
DispatchResult run_lot(std::size_t total, const DispatchHooks& hooks,
                       const LotEngine& engine) {
  UnitLedger<production::BatchResume> ledger(
      total, hooks, production::decode_device_checkpoint,
      production::encode_device_checkpoint);
  DispatchResult res;
  res.report_kind = "batch_report";
  production::BatchReport report = engine(
      ledger.resume, [&ledger](std::span<const production::DeviceOutcome> slot) {
        ledger.complete(slot, [](const production::DeviceOutcome& die) {
          return die.index;
        });
      });
  if (!ledger.settle(res)) return res;
  res.outcome = report.outcome();
  res.report_json = core::to_json(report);
  res.batch = std::move(report);
  return res;
}

DispatchResult run_batch_job(const core::JobRequest& req,
                             const std::vector<production::DieSpec>& population,
                             const DispatchHooks& hooks) {
  production::TestPlan plan;
  plan.tiers = parse_tiers(req.tiers);
  plan.full_spec = req.full_spec;
  plan.fault_spot_check = req.fault_spot_check;
  return run_lot(population.size(), hooks,
                 [&](const production::BatchResume& resume,
                     const production::DeviceCompleteFn& on_complete) {
                   return production::run_batch(population, plan,
                                                effective_threads(req), {},
                                                &resume, on_complete,
                                                hooks.should_stop);
                 });
}

DispatchResult run_lockstep_job(const core::JobRequest& req,
                                const std::vector<production::DieSpec>& population,
                                const DispatchHooks& hooks) {
  return run_lot(population.size(), hooks,
                 [&](const production::BatchResume& resume,
                     const production::DeviceCompleteFn& on_complete) {
                   return production::run_batch_lockstep(
                       population, lockstep_screen_plan(), &resume, on_complete,
                       effective_threads(req), hooks.should_stop);
                 });
}

DispatchResult run_campaign_job(const core::JobRequest& req,
                                const DispatchHooks& hooks) {
  const tsrt::CircuitKind kind = parse_circuit(req.circuit);
  const tsrt::ExampleCircuit circuit = tsrt::build_circuit(kind);
  std::vector<faults::FaultSpec> universe =
      kind == tsrt::CircuitKind::kOp1Follower ? faults::op1_fault_universe()
                                              : faults::sc_fault_universe();
  if (req.max_faults > 0 && universe.size() > req.max_faults) {
    universe.resize(req.max_faults);
  }

  const tsrt::TsrtOptions opts = tsrt::paper_options(kind);
  const tsrt::TsrtRun golden =
      tsrt::run_transient_test(kind, std::nullopt, opts);
  const faults::FaultTestFn test = [kind, opts,
                                    &golden](const faults::FaultSpec& fault) {
    faults::FaultResult r;
    r.fault = fault;
    const tsrt::TsrtRun faulty = tsrt::run_transient_test(kind, fault, opts);
    r.score = tsrt::combined_detection_percent(golden, faulty);
    r.detected = tsrt::is_detected(r.score);
    return r;
  };

  // The collapse analysis must outlive the engine call.
  faults::CampaignOptions copts;
  std::optional<faults::CollapsedUniverse> cu;
  if (req.collapse) {
    faults::CollapseOptions col;
    col.taps = {circuit.output_node};
    cu = faults::collapse(universe, circuit.netlist, circuit.node_map, col);
    copts.collapse = &*cu;
  }
  // Work items: the universe, or its class representatives under collapse.
  const std::size_t total = cu ? cu->map.simulated_count() : universe.size();
  UnitLedger<faults::CampaignResume> ledger(total, hooks,
                                            faults::decode_fault_checkpoint,
                                            faults::encode_fault_checkpoint);
  copts.threads = effective_threads(req);
  copts.stop = hooks.should_stop;
  copts.on_fault_complete = [&ledger](std::size_t index, std::size_t,
                                      const faults::FaultResult& result) {
    ledger.complete({&result, 1},
                    [index](const faults::FaultResult&) { return index; });
  };
  copts.resume = &ledger.resume;

  DispatchResult res;
  res.report_kind = "campaign_report";
  faults::CampaignReport report =
      faults::run_campaign_parallel(universe, test, copts);
  if (!ledger.settle(res)) return res;
  res.outcome = report.outcome();
  res.report_json = core::to_json(report);
  res.campaign = std::move(report);
  res.collapsed = std::move(cu);
  return res;
}

DispatchResult run_testability_job(const core::JobRequest& req,
                                   const DispatchHooks& hooks) {
  const tsrt::CircuitKind kind = parse_circuit(req.circuit);
  const tsrt::ExampleCircuit circuit = tsrt::build_circuit(kind);

  if (hooks.should_stop && hooks.should_stop()) {
    DispatchResult res;
    res.stopped = true;
    res.report_kind = "testability_study";
    res.outcome = core::Outcome::fail("job stopped before start");
    return res;
  }

  analysis::TestabilityOptions topts;
  topts.taps = {circuit.output_node};
  DispatchResult res;
  res.testability = analysis::analyze_testability(circuit.netlist, topts);

  const std::vector<faults::FaultSpec> universe =
      kind == tsrt::CircuitKind::kOp1Follower ? faults::op1_fault_universe()
                                              : faults::sc_fault_universe();
  faults::CollapseOptions col;
  col.taps = {circuit.output_node};
  res.collapsed =
      faults::collapse(universe, circuit.netlist, circuit.node_map, col);

  res.report_kind = "testability_study";
  res.outcome = res.testability->outcome();

  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "testability_study");
  w.member("circuit", req.circuit)
      .member("circuit_name", tsrt::circuit_name(kind))
      .member("output_node", circuit.output_node)
      .member("transistor_count", circuit.transistor_count);
  w.key("testability");
  res.testability->to_json(w);
  w.key("collapse");
  res.collapsed->to_json(w);
  w.end_object();
  res.report_json = w.str();
  if (hooks.progress) hooks.progress(1, 1);
  return res;
}

}  // namespace

std::vector<bist::Tier> parse_tiers(const std::vector<std::string>& names) {
  if (names.empty()) {
    return {bist::kAllTiers.begin(), bist::kAllTiers.end()};
  }
  std::vector<bist::Tier> tiers;
  tiers.reserve(names.size());
  for (const std::string& name : names) {
    bool found = false;
    for (bist::Tier t : bist::kAllTiers) {
      if (name == bist::to_string(t)) {
        tiers.push_back(t);
        found = true;
        break;
      }
    }
    if (!found) bad_request("unknown tier \"" + name + "\"");
  }
  return tiers;
}

std::vector<production::DieSpec> lockstep_screen_population(
    std::size_t count, std::uint64_t batch_seed) {
  std::vector<production::DieSpec> dies(count);
  for (std::size_t i = 0; i < count; ++i) {
    dies[i].seed = production::device_seed(batch_seed, i);
    dies[i].label = "die " + std::to_string(i + 1);
  }
  return dies;
}

namespace {

/// Deterministic per-die parameter spread in [1 - amp, 1 + amp].
double spread(std::uint64_t seed, std::uint64_t salt, double amp) {
  const std::uint64_t h = (seed ^ salt) * 0x9E3779B97F4A7C15ull;
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
  return 1.0 + amp * (2.0 * u - 1.0);
}

constexpr std::size_t kScreenCells = 94;  // 98 MNA unknowns

/// The screen's circuit. Every value is a placeholder that
/// screen_values() overwrites.
void screen_topology(circuit::Netlist& n) {
  using circuit::kGround;
  const circuit::NodeId stim = n.node("stim");
  const circuit::NodeId bus = n.node("bus");
  const circuit::NodeId out = n.node("out");
  n.add<circuit::VoltageSource>(
      stim, kGround, std::make_shared<circuit::SineWave>(0.0, 0.0, 0.0));
  n.add<circuit::Resistor>(stim, bus, 1.0);
  n.add<circuit::Resistor>(bus, out, 1.0);
  n.add<circuit::Resistor>(out, kGround, 1.0);
  n.add<circuit::Capacitor>(out, kGround, 1.0);
  for (std::size_t i = 0; i < kScreenCells; ++i) {
    const circuit::NodeId cell = n.node("cell" + std::to_string(i));
    n.add<circuit::Resistor>(bus, cell, 1.0);
    if (i % 16 == 0) n.add<circuit::Capacitor>(cell, kGround, 1.0);
  }
}

/// One die's row, slot for slot in screen_topology()'s element order.
void screen_values(const production::DieSpec& spec, std::span<double> row) {
  const double r_scale = spread(spec.seed, 0x52, 0.05);
  const double c_scale = spread(spec.seed, 0x43, 0.05);
  std::size_t k = 0;
  // The drive: SineWave offset, amplitude, frequency, delay.
  row[k++] = 2.5;
  row[k++] = 2.5 * spread(spec.seed, 0x56, 0.02);
  row[k++] = 50e3;
  row[k++] = 0.0;
  row[k++] = 100.0 * r_scale;
  row[k++] = 1e3 * r_scale;
  row[k++] = 10e3 * r_scale;
  row[k++] = 10e-9 * c_scale;
  for (std::size_t i = 0; i < kScreenCells; ++i) {
    row[k++] = (1e3 + 10.0 * static_cast<double>(i)) * r_scale;
    if (i % 16 == 0) {
      row[k++] = (1e-9 + 1e-11 * static_cast<double>(i)) * c_scale;
    }
  }
}

core::Outcome judge_screen_die(const production::DieSpec&,
                               const circuit::LaneWaveforms& r) {
  double lo = 1e300;
  double hi = -1e300;
  for (double v : r.voltage("out")) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi - lo > 0.5) return core::Outcome::ok("pass");
  return core::Outcome::fail("output swing " + std::to_string(hi - lo) + " V");
}

}  // namespace

production::LockstepPlan lockstep_screen_plan() {
  production::LockstepPlan plan;
  plan.topology = screen_topology;
  plan.values = screen_values;
  plan.transient.dt = 100e-9;
  plan.transient.t_stop = 5e-6;  // 50-step settling screen
  plan.evaluate = judge_screen_die;
  return plan;
}

DispatchResult dispatch(const core::JobRequest& request,
                        const DispatchHooks& hooks) {
  switch (request.kind) {
    case core::JobKind::kBatch: {
      production::BatchConfig cfg;
      cfg.device_count = request.device_count;
      cfg.batch_seed = request.batch_seed;
      return run_batch_job(request, production::make_population(cfg), hooks);
    }
    case core::JobKind::kLockstepBatch:
      return run_lockstep_job(
          request,
          lockstep_screen_population(request.device_count, request.batch_seed),
          hooks);
    case core::JobKind::kFaultCampaign:
      return run_campaign_job(request, hooks);
    case core::JobKind::kTestability:
      return run_testability_job(request, hooks);
  }
  bad_request("unknown job kind");
}

DispatchResult dispatch(const core::JobRequest& request,
                        const std::vector<production::DieSpec>& population,
                        const DispatchHooks& hooks) {
  switch (request.kind) {
    case core::JobKind::kBatch:
      return run_batch_job(request, population, hooks);
    case core::JobKind::kLockstepBatch:
      return run_lockstep_job(request, population, hooks);
    default:
      bad_request("explicit populations apply only to batch jobs");
  }
}

}  // namespace msbist::service
