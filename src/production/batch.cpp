#include "production/batch.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/device.h"
#include "core/failure_json.h"
#include "core/job.h"
#include "core/thread_pool.h"
#include "faults/collapse.h"

namespace msbist::production {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The canned macro-level injections of the spot check: the
/// production_test example's fault menagerie plus deliberately redundant
/// and statically invisible entries exercising the collapse algebra.
struct SpotFault {
  const char* label;
  void (*apply)(adc::DualSlopeAdcConfig&);
};

constexpr SpotFault kSpotFaults[] = {
    {"counter-stuck-bit4",
     [](adc::DualSlopeAdcConfig& c) { c.counter_faults.stuck_bit = 4; }},
    {"latch-stuck-high-0x44",
     [](adc::DualSlopeAdcConfig& c) { c.latch_faults.stuck_high_mask = 0x44; }},
    {"control-frozen-integrate",
     [](adc::DualSlopeAdcConfig& c) {
       c.control_faults.stuck_phase = digital::ConvPhase::kIntegrate;
     }},
    // The same physical defect written differently: bits 2 and 6 stuck
    // high IS the 0x44 mask — collapses onto the entry above, one solve.
    {"latch-stuck-high-bit2-bit6",
     [](adc::DualSlopeAdcConfig& c) {
       c.latch_faults.stuck_high_mask = (1u << 2) | (1u << 6);
     }},
    // Statically invisible: bit 12 of the kAdcCounterBits-wide counter
    // masks a bit the count never sets, and the latch load strips
    // anything above its own width anyway.
    {"counter-stuck-bit12",
     [](adc::DualSlopeAdcConfig& c) { c.counter_faults.stuck_bit = 12; }},
    // Statically invisible: latch bits 10-11 stuck low sit above the
    // kAdcLatchBits-wide output word.
    {"latch-stuck-low-0xC00",
     [](adc::DualSlopeAdcConfig& c) { c.latch_faults.stuck_low_mask = 0xC00; }},
};

/// Canonical signature of a config's digital-fault knobs given the ADC
/// datapath widths. Knobs that cannot move any visible output bit
/// canonicalize away: a counter bit at/above kAdcCounterBits is either a
/// no-op mask (stuck low) or stripped by the latch load (stuck high), and
/// latch mask bits resolve through q() = (value | high) & ~low with the
/// load masking value to kAdcLatchBits. Equal signatures => identical
/// faulted behaviour; a signature equal to the clean config's is a no-op
/// injection (statically undetectable by any tier).
std::string digital_fault_signature(const adc::DualSlopeAdcConfig& c) {
  std::ostringstream os;
  const digital::CounterFaults& ctr = c.counter_faults;
  if (ctr.stuck_bit && *ctr.stuck_bit < adc::kAdcCounterBits) {
    os << "ctr-stuck:" << *ctr.stuck_bit << ':' << ctr.stuck_bit_high << ';';
  }
  if (ctr.miss_every != 0) os << "ctr-miss:" << ctr.miss_every << ';';
  const digital::LatchFaults& lat = c.latch_faults;
  const std::uint32_t word_mask = (1u << adc::kAdcLatchBits) - 1u;
  const std::uint32_t high_eff = lat.stuck_high_mask & ~lat.stuck_low_mask;
  const std::uint32_t low_eff = lat.stuck_low_mask & word_mask;
  if (high_eff != 0) os << "lat-high:" << high_eff << ';';
  if (low_eff != 0) os << "lat-low:" << low_eff << ';';
  if (lat.load_disabled) os << "lat-noload;";
  if (c.control_faults.stuck_phase) {
    os << "ctl-stuck:" << static_cast<int>(*c.control_faults.stuck_phase)
       << ';';
  }
  return os.str();
}

SpotCheckResult run_spot_check(const DieSpec& spec) {
  SpotCheckResult res;
  // Collapse the menu before touching the solver: group injections by
  // canonical signature, mark no-op injections statically undetectable.
  const std::string clean = digital_fault_signature(spec.config);
  std::vector<adc::DualSlopeAdcConfig> faulted;
  std::vector<std::string> sigs;
  std::vector<bool> invisible;
  for (const SpotFault& f : kSpotFaults) {
    adc::DualSlopeAdcConfig cfg = spec.config;
    f.apply(cfg);
    std::string sig = digital_fault_signature(cfg);
    invisible.push_back(sig == clean);
    sigs.push_back(std::move(sig));
    faulted.push_back(cfg);
  }
  const faults::CollapseMap map =
      faults::CollapseMap::from_signatures(sigs, invisible);
  res.injected = map.size();
  res.simulated = map.simulated_count();
  res.undetectable = map.undetectable_count();

  std::vector<bool> fault_detected(map.size(), false);
  for (std::size_t r : map.representatives()) {
    // Same seed -> same die (identical variation draws), plus the fault.
    core::Device clone(spec.seed, faulted[r]);
    const core::Outcome quick =
        clone.bist().run_tier(bist::Tier::kCompressed, clone.adc());
    for (std::size_t m : map.members_of(r)) fault_detected[m] = !quick.pass;
  }
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (map.is_undetectable(i)) {
      res.undetectable_labels.emplace_back(kSpotFaults[i].label);
    } else if (fault_detected[i]) {
      ++res.detected;  // the BIST flagged the injected fault — good
    } else {
      res.missed.emplace_back(kSpotFaults[i].label);
    }
  }
  return res;
}

}  // namespace

void SpotCheckResult::to_json(core::JsonWriter& w) const {
  w.begin_object()
      .member("injected", static_cast<std::uint64_t>(injected))
      .member("detected", static_cast<std::uint64_t>(detected))
      .member("simulated", static_cast<std::uint64_t>(simulated))
      .member("statically_undetectable", static_cast<std::uint64_t>(undetectable))
      .member("pass", pass());
  w.key("missed").begin_array();
  for (const std::string& m : missed) w.value(m);
  w.end_array();
  w.key("undetectable").begin_array();
  for (const std::string& m : undetectable_labels) w.value(m);
  w.end_array();
  w.end_object();
}

void DeviceOutcome::to_json(core::JsonWriter& w) const {
  // An outcome restored from a checkpoint replays the original run's
  // document verbatim, so a resumed report's devices array is
  // byte-identical to the uninterrupted run's.
  if (!restored_json.empty()) {
    w.raw_value(restored_json);
    return;
  }
  w.begin_object()
      .member("index", static_cast<std::uint64_t>(index))
      .member("seed", seed)
      .member("label", label)
      .member("pass", outcome.pass)
      .member("detail", outcome.detail);
  w.key("tiers_run").begin_array();
  for (bist::Tier t : tiers_run) w.value(bist::to_string(t));
  w.end_array();
  w.key("failed_tiers").begin_array();
  for (bist::Tier t : failed_tiers) w.value(bist::to_string(t));
  w.end_array();
  if (!tiers_run.empty()) {
    w.key("bist");
    bist.to_json(w);
  }
  if (has_metrics) {
    w.key("metrics");
    metrics.to_json(w, /*include_curves=*/false);
    w.key("spec");
    spec.to_json(w);
  }
  if (spot_check_run) {
    w.key("spot_check");
    spot_check.to_json(w);
  }
  w.member("degraded", degraded);
  if (!failures.empty()) {
    w.key("failures").begin_array();
    for (const core::Failure& f : failures) f.to_json(w);
    w.end_array();
  }
  w.member("elapsed_seconds", elapsed_seconds);
  w.end_object();
}

std::uint64_t device_seed(std::uint64_t batch_seed, std::size_t index) {
  // splitmix64: the standard seed-sequence mixer; decorrelates adjacent
  // (batch_seed, index) pairs completely.
  std::uint64_t z = batch_seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;  // 0 is the reserved no-variation die
}

std::vector<DieSpec> make_population(const BatchConfig& cfg) {
  std::vector<DieSpec> pop;
  pop.reserve(cfg.device_count);
  for (std::size_t i = 0; i < cfg.device_count; ++i) {
    DieSpec d;
    d.seed = device_seed(cfg.batch_seed, i);
    d.config = cfg.base;
    d.label = "die " + std::to_string(i + 1);
    pop.push_back(std::move(d));
  }
  return pop;
}

std::vector<DieSpec> paper_population() {
  std::vector<DieSpec> pop;
  pop.reserve(10);
  for (std::size_t i = 0; i < 10; ++i) {
    DieSpec d;
    d.seed = 1995 + i + 1;  // lot seed 1995, die i at lot_seed + i + 1
    d.config = adc::DualSlopeAdcConfig::characterized();
    d.label = "die " + std::to_string(i + 1);
    pop.push_back(std::move(d));
  }
  return pop;
}

DeviceOutcome test_device(const DieSpec& spec, const TestPlan& plan) {
  const auto t0 = Clock::now();
  DeviceOutcome out;
  out.seed = spec.seed;
  out.label = spec.label;
  out.outcome = core::Outcome::ok();

  core::Device die(spec.seed, spec.config);

  out.tiers_run = plan.tiers;
  bool tiers_pass = true;
  for (bist::Tier t : plan.tiers) {
    const core::Outcome tier = die.bist().run_tier(t, die.adc(), out.bist);
    if (!tier.pass) {
      tiers_pass = false;
      out.failed_tiers.push_back(t);
    }
  }
  out.bist.pass = tiers_pass;
  if (!tiers_pass) {
    std::string detail = "BIST fail:";
    for (bist::Tier t : out.failed_tiers) {
      detail += ' ';
      detail += bist::to_string(t);
    }
    out.outcome &= core::Outcome::fail(std::move(detail));
  }
  // Tiers the controller had to abort (solver failures inside the macro
  // model) leave their diagnostics on the bist report; promote them to
  // per-die failure records and mark the die degraded.
  if (!out.bist.failures.empty()) {
    out.degraded = true;
    out.failures.insert(out.failures.end(), out.bist.failures.begin(),
                        out.bist.failures.end());
  }

  if (plan.full_spec) {
    try {
      out.metrics = die.characterize();
      out.has_metrics = true;
      out.spec = out.metrics.outcome(plan.limits);
      if (!out.spec.pass) out.outcome &= core::Outcome::fail(out.spec.detail);
    } catch (const core::SolverError& e) {
      out.degraded = true;
      core::Failure f = e.failure();
      f.analysis = "production/full_spec";
      out.failures.push_back(std::move(f));
      out.spec = core::Outcome::fail("characterization aborted: " +
                                     std::string(e.what()));
      out.outcome &= out.spec;
    } catch (const std::exception& e) {
      // A transfer too broken to measure (fewer than three transitions):
      // the spec verdict fails, and the die keeps its tier results.
      out.degraded = true;
      core::Failure f;
      f.code = core::ErrorCode::kInternal;
      f.analysis = "production/full_spec";
      f.detail = e.what();
      out.failures.push_back(std::move(f));
      out.spec = core::Outcome::fail("characterization aborted: " +
                                     std::string(e.what()));
      out.outcome &= out.spec;
    }
  }

  if (plan.fault_spot_check) {
    out.spot_check_run = true;
    try {
      out.spot_check = run_spot_check(spec);
      if (!out.spot_check.pass()) {
        std::string detail = "spot check missed:";
        for (const std::string& m : out.spot_check.missed) detail += " " + m;
        out.outcome &= core::Outcome::fail(std::move(detail));
      }
    } catch (const core::SolverError& e) {
      out.degraded = true;
      core::Failure f = e.failure();
      f.analysis = "production/spot_check";
      out.failures.push_back(std::move(f));
      out.outcome &= core::Outcome::fail("spot check aborted: " +
                                         std::string(e.what()));
    }
  }

  if (out.outcome.pass && out.outcome.detail.empty()) {
    out.outcome.detail = "pass";
  }
  out.elapsed_seconds = seconds_since(t0);
  return out;
}

std::string encode_device_checkpoint(const DeviceOutcome& outcome) {
  return core::to_json(outcome);
}

DeviceOutcome decode_device_checkpoint(const core::JsonValue& v) {
  try {
    const auto req = [](const core::JsonValue& obj,
                        const char* key) -> const core::JsonValue& {
      const core::JsonValue* m = obj.find(key);
      if (m == nullptr) {
        throw std::logic_error(std::string("missing checkpoint member \"") +
                               key + "\"");
      }
      return *m;
    };
    const auto parse_tier = [](const std::string& name) {
      for (bist::Tier t : bist::kAllTiers) {
        if (name == bist::to_string(t)) return t;
      }
      throw std::logic_error("unknown tier \"" + name + "\" in checkpoint");
    };
    if (!v.is_object()) throw std::logic_error("checkpoint must be an object");

    // The members DeviceOutcome::to_json writes; only what aggregate()
    // and canonical_outcomes() read is re-typed, the rest rides along in
    // the verbatim document.
    DeviceOutcome out;
    out.seed = req(v, "seed").as_u64();
    out.label = req(v, "label").as_string();
    out.outcome.pass = req(v, "pass").as_bool();
    out.outcome.detail = req(v, "detail").as_string();
    for (const core::JsonValue& t : req(v, "tiers_run").items()) {
      out.tiers_run.push_back(parse_tier(t.as_string()));
    }
    for (const core::JsonValue& t : req(v, "failed_tiers").items()) {
      out.failed_tiers.push_back(parse_tier(t.as_string()));
    }
    if (!out.tiers_run.empty()) {  // to_json writes "bist" only then
      const core::JsonValue& bist = req(v, "bist");
      const core::JsonValue& analog = req(bist, "analog");
      const core::JsonValue& digital = req(bist, "digital");
      out.bist.pass = req(bist, "pass").as_bool();
      out.bist.analog.pass = req(analog, "pass").as_bool();
      out.bist.ramp.pass = req(req(bist, "ramp"), "pass").as_bool();
      out.bist.digital.pass = req(digital, "pass").as_bool();
      out.bist.compressed.pass = req(req(bist, "compressed"), "pass").as_bool();
      // The two observables aggregate() reads, for tiers that ran.
      for (bist::Tier t : out.tiers_run) {
        if (t == bist::Tier::kDigital) {
          out.bist.digital.max_conversion_time_s =
              req(digital, "max_conversion_time_s").as_double();
        }
        if (t == bist::Tier::kAnalog) {
          const auto& falls = req(analog, "fall_times_s").items();
          if (!falls.empty()) {
            out.bist.analog.fall_times_s = {falls.front().as_double()};
          }
        }
      }
    }
    if (const core::JsonValue* metrics = v.find("metrics")) {
      out.has_metrics = true;
      out.metrics.offset_lsb = req(*metrics, "offset_lsb").as_double();
      out.metrics.gain_error_lsb = req(*metrics, "gain_error_lsb").as_double();
      out.metrics.max_abs_inl = req(*metrics, "max_abs_inl").as_double();
      out.metrics.max_abs_dnl = req(*metrics, "max_abs_dnl").as_double();
    }
    if (const core::JsonValue* spot = v.find("spot_check")) {
      out.spot_check_run = true;
      out.spot_check.injected =
          static_cast<std::size_t>(req(*spot, "injected").as_u64());
      out.spot_check.detected =
          static_cast<std::size_t>(req(*spot, "detected").as_u64());
      out.spot_check.simulated =
          static_cast<std::size_t>(req(*spot, "simulated").as_u64());
      out.spot_check.undetectable = static_cast<std::size_t>(
          req(*spot, "statically_undetectable").as_u64());
    }
    out.degraded = req(v, "degraded").as_bool();
    if (const core::JsonValue* failures = v.find("failures")) {
      for (const core::JsonValue& f : failures->items()) {
        out.failures.push_back(core::failure_from_json(f));
      }
    }
    out.elapsed_seconds = req(v, "elapsed_seconds").as_double();
    out.restored_json = v.dump();
    return out;
  } catch (const std::logic_error& e) {
    core::Failure f;
    f.code = core::ErrorCode::kBadInput;
    f.analysis = "production/device_checkpoint";
    f.detail = e.what();
    core::throw_failure(std::move(f));
  }
}

double BatchReport::yield() const {
  if (devices.empty()) return 0.0;
  return static_cast<double>(passed) / static_cast<double>(devices.size());
}

double BatchReport::devices_per_second() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(devices.size()) / wall_seconds;
}

std::string BatchReport::summary() const {
  std::ostringstream os;
  os.precision(4);
  os << passed << "/" << devices.size() << " devices pass (yield "
     << yield() * 100.0 << " %); ";
  if (degraded_count > 0) os << degraded_count << " degraded; ";
  os << threads_used << " thread(s), "
     << wall_seconds << " s wall, " << cpu_seconds << " s cpu, "
     << devices_per_second() << " devices/s";
  return os.str();
}

std::string BatchReport::canonical_outcomes() const {
  std::ostringstream os;
  os.precision(17);
  for (const DeviceOutcome& d : devices) {
    os << d.index << '|' << d.seed << '|' << d.label << '|' << d.outcome.pass
       << '|' << d.outcome.detail;
    for (bist::Tier t : d.tiers_run) {
      os << '|' << bist::to_string(t) << '=' << d.bist.tier_pass(t);
    }
    if (d.has_metrics) {
      os << "|offset=" << d.metrics.offset_lsb
         << "|gain=" << d.metrics.gain_error_lsb
         << "|inl=" << d.metrics.max_abs_inl
         << "|dnl=" << d.metrics.max_abs_dnl;
    }
    if (d.spot_check_run) {
      os << "|spot=" << d.spot_check.detected << '/' << d.spot_check.injected
         << ":sim" << d.spot_check.simulated << ":static"
         << d.spot_check.undetectable;
    }
    if (d.degraded) {
      os << "|degraded";
      for (const core::Failure& f : d.failures) {
        os << ':' << core::to_string(f.code) << '@' << f.analysis;
      }
    }
    os << '\n';
  }
  os << "passed=" << passed << " degraded=" << degraded_count
     << " of=" << devices.size();
  const ParamStats* all[] = {&offset_lsb, &gain_error_lsb, &max_abs_inl,
                             &max_abs_dnl, &conversion_time_s,
                             &first_step_fall_time_s};
  for (const ParamStats* s : all) {
    os << ' ' << s->count << ':' << s->mean << ':' << s->sigma << ':' << s->min
       << ':' << s->max << ':' << s->p05 << ':' << s->p50 << ':' << s->p95;
  }
  os << '\n';
  return os.str();
}

core::Outcome BatchReport::outcome() const {
  std::ostringstream os;
  os.precision(4);
  os << passed << "/" << devices.size() << " pass, yield " << yield() * 100.0
     << " %";
  if (degraded_count > 0) os << ", " << degraded_count << " degraded";
  return {passed == devices.size(), os.str()};
}

void BatchReport::to_json(core::JsonWriter& w) const {
  w.begin_object();
  core::write_report_envelope(w, "batch_report");
  w.member("device_count", static_cast<std::uint64_t>(devices.size()))
      .member("passed", static_cast<std::uint64_t>(passed))
      .member("degraded_count", static_cast<std::uint64_t>(degraded_count))
      .member("yield", yield())
      .member("threads_used", static_cast<std::uint64_t>(threads_used))
      .member("wall_seconds", wall_seconds)
      .member("cpu_seconds", cpu_seconds)
      .member("devices_per_second", devices_per_second());
  w.key("tier_failures").begin_object();
  for (bist::Tier t : bist::kAllTiers) {
    w.key(bist::to_string(t)).begin_array();
    for (std::size_t i : tier_failures[static_cast<std::size_t>(t)]) {
      w.value(static_cast<std::uint64_t>(i));
    }
    w.end_array();
  }
  w.end_object();
  w.key("stats").begin_object();
  w.key("offset_lsb");
  offset_lsb.to_json(w);
  w.key("gain_error_lsb");
  gain_error_lsb.to_json(w);
  w.key("max_abs_inl");
  max_abs_inl.to_json(w);
  w.key("max_abs_dnl");
  max_abs_dnl.to_json(w);
  w.key("conversion_time_s");
  conversion_time_s.to_json(w);
  w.key("first_step_fall_time_s");
  first_step_fall_time_s.to_json(w);
  w.end_object();
  w.key("devices").begin_array();
  for (const DeviceOutcome& d : devices) d.to_json(w);
  w.end_array();
  w.end_object();
}

namespace {

/// Ordered aggregation over filled slots: identical at any thread count.
BatchReport aggregate(std::vector<DeviceOutcome> slots, std::size_t threads) {
  BatchReport report;
  report.threads_used = threads;
  std::vector<double> offsets, gains, inls, dnls, conv_times, fall_times;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    DeviceOutcome& d = slots[i];
    d.index = i;
    if (d.outcome.pass) ++report.passed;
    if (d.degraded) ++report.degraded_count;
    report.cpu_seconds += d.elapsed_seconds;
    for (bist::Tier t : d.failed_tiers) {
      report.tier_failures[static_cast<std::size_t>(t)].push_back(i);
    }
    if (d.has_metrics) {
      offsets.push_back(d.metrics.offset_lsb);
      gains.push_back(d.metrics.gain_error_lsb);
      inls.push_back(d.metrics.max_abs_inl);
      dnls.push_back(d.metrics.max_abs_dnl);
    }
    for (bist::Tier t : d.tiers_run) {
      if (t == bist::Tier::kDigital) {
        conv_times.push_back(d.bist.digital.max_conversion_time_s);
      }
      if (t == bist::Tier::kAnalog && !d.bist.analog.fall_times_s.empty()) {
        fall_times.push_back(d.bist.analog.fall_times_s.front());
      }
    }
    report.devices.push_back(std::move(d));
  }
  report.offset_lsb = compute_stats(std::move(offsets));
  report.gain_error_lsb = compute_stats(std::move(gains));
  report.max_abs_inl = compute_stats(std::move(inls));
  report.max_abs_dnl = compute_stats(std::move(dnls));
  report.conversion_time_s = compute_stats(std::move(conv_times));
  report.first_step_fall_time_s = compute_stats(std::move(fall_times));
  return report;
}

/// Score one marched lane into its die's outcome (index stamped first: the
/// checkpoint document is spliced verbatim on resume).
void score_lane(const DieSpec& spec, std::size_t index,
                const circuit::BatchVariantOutcome& lane,
                const LockstepPlan& plan, DeviceOutcome& out) {
  out.index = index;
  out.seed = spec.seed;
  out.label = spec.label;
  if (!lane.ok()) {
    out.degraded = true;
    out.failures.push_back(*lane.failure);
    out.outcome =
        core::Outcome::fail("lockstep lane failed: " + lane.failure->message());
    return;
  }
  try {
    out.outcome = plan.evaluate(spec, *lane.result);
    if (out.outcome.pass && out.outcome.detail.empty()) {
      out.outcome.detail = "pass";
    }
  } catch (const std::exception& e) {
    out.degraded = true;
    core::Failure f;
    f.code = core::ErrorCode::kInternal;
    f.analysis = "production/lockstep_evaluate";
    f.detail = e.what();
    out.failures.push_back(std::move(f));
    out.outcome = core::Outcome::fail("lockstep evaluate aborted: " +
                                      std::string(e.what()));
  }
}

/// Draw die `spec`'s value row. The row is filled with NaN first, so a
/// slot values() leaves unwritten makes circuit::set_values throw instead
/// of keeping whatever the buffer held.
void draw_row(const LockstepPlan& plan, const DieSpec& spec,
              std::span<double> row) {
  std::fill(row.begin(), row.end(), std::numeric_limits<double>::quiet_NaN());
  plan.values(spec, row);
}

/// The lane netlists of one block, reused block after block within one
/// run_batch_lockstep call: the leader lane plus a full block of
/// netlists built from the plan's topology, and the buffer each die's
/// row is drawn into before it is written into its lane.
struct LaneSet {
  explicit LaneSet(const LockstepPlan& plan) : nets(kLockstepBlockDies + 1) {
    for (circuit::Netlist& n : nets) plan.topology(n);
    row.resize(circuit::value_count(nets.front()));
  }
  std::vector<circuit::Netlist> nets;
  std::vector<double> row;
};

}  // namespace

void LockstepPlan::build(const DieSpec& spec, circuit::Netlist& netlist) const {
  topology(netlist);
  std::vector<double> row(circuit::value_count(netlist));
  draw_row(*this, spec, row);
  circuit::set_values(netlist, row);
}

BatchReport run_batch(const std::vector<DieSpec>& population,
                      const TestPlan& plan, std::size_t threads,
                      const DeviceTestFn& test_fn, const BatchResume* resume,
                      const DeviceCompleteFn& on_complete,
                      const core::StopFn& stop) {
  const auto t0 = Clock::now();
  const std::size_t n = population.size();
  if (threads == 0) threads = core::default_thread_count();
  if (n > 0 && threads > n) threads = n;
  // Per-die isolation: one die whose test throws — a custom test_fn
  // propagating a solver failure, or an unexpected bug — degrades to a
  // structured failing outcome; the rest of the lot still gets tested.
  const auto degraded_outcome = [](const DieSpec& spec, core::Failure f,
                                   const char* what) {
    DeviceOutcome out;
    out.seed = spec.seed;
    out.label = spec.label;
    out.degraded = true;
    out.failures.push_back(std::move(f));
    out.outcome = core::Outcome::fail("device test aborted: " +
                                      std::string(what));
    return out;
  };
  const auto run_one = [&](const DieSpec& spec) {
    try {
      return test_fn ? test_fn(spec, plan) : test_device(spec, plan);
    } catch (const core::SolverError& e) {
      core::Failure f = e.failure();
      if (f.analysis.empty()) f.analysis = "production/device";
      return degraded_outcome(spec, std::move(f), e.what());
    } catch (const std::exception& e) {
      core::Failure f;
      f.code = core::ErrorCode::kInternal;
      f.analysis = "production/device";
      f.detail = e.what();
      return degraded_outcome(spec, std::move(f), e.what());
    }
  };

  std::vector<DeviceOutcome> slots(n);
  const std::vector<char> restored = core::splice_restored(resume, slots);
  // Determinism: device i owns slot [i] and only its own slot is written.
  core::for_each_slot(n, threads, stop, [&](std::size_t i) {
    if (restored[i] != 0) return;
    slots[i] = run_one(population[i]);
    // Stamp the slot index before the checkpoint hook fires: the
    // checkpointed document is spliced verbatim on resume, so it must
    // already carry its final position (aggregate() re-stamps typed
    // outcomes but cannot reach inside a restored document).
    slots[i].index = i;
    if (on_complete) on_complete({&slots[i], 1});
  });

  BatchReport report = aggregate(std::move(slots), threads);
  report.wall_seconds = seconds_since(t0);
  return report;
}

BatchReport run_batch(const BatchConfig& cfg) {
  return run_batch(make_population(cfg), cfg.plan, cfg.threads);
}

BatchReport run_batch_lockstep(const std::vector<DieSpec>& population,
                               const LockstepPlan& plan,
                               const BatchResume* resume,
                               const DeviceCompleteFn& on_complete,
                               std::size_t threads, const core::StopFn& stop) {
  if (!plan.topology || !plan.values || !plan.evaluate) {
    throw std::invalid_argument(
        "run_batch_lockstep: plan.topology, plan.values and plan.evaluate "
        "are required");
  }
  const auto t0 = Clock::now();
  const std::size_t n = population.size();

  std::vector<DeviceOutcome> slots(n);
  const std::vector<char> restored = core::splice_restored(resume, slots);
  std::vector<std::size_t> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (restored[i] == 0) live.push_back(i);
  }

  const std::size_t blocks =
      (live.size() + kLockstepBlockDies - 1) / kLockstepBlockDies;
  if (threads == 0) threads = core::default_thread_count();
  threads = std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(blocks, 1));

  // Lane sets not held by a block. A block builds a set only when none is
  // free, so at most `threads` exist; all of them die with this call.
  std::mutex free_mu;
  std::vector<std::unique_ptr<LaneSet>> free_sets;
  const auto take_lane_set = [&] {
    {
      const std::lock_guard<std::mutex> lock(free_mu);
      if (!free_sets.empty()) {
        std::unique_ptr<LaneSet> set = std::move(free_sets.back());
        free_sets.pop_back();
        return set;
      }
    }
    return std::make_unique<LaneSet>(plan);
  };
  // The leader lane's row (die live[0]), drawn once, into the first set's
  // shape; the set then waits on the free list for the first block.
  const auto ts = Clock::now();
  std::vector<double> leader_row;
  if (!live.empty()) {
    free_sets.push_back(std::make_unique<LaneSet>(plan));
    leader_row.resize(free_sets.back()->row.size());
    draw_row(plan, population[live[0]], leader_row);
  }
  const double setup_seconds = seconds_since(ts);

  // Block b owns slots live[b*B .. b*B+B) and block_seconds[b].
  std::vector<double> block_seconds(blocks, 0.0);
  core::for_each_slot(blocks, threads, stop, [&](std::size_t b) {
    const auto tb = Clock::now();
    const std::size_t first = b * kLockstepBlockDies;
    const std::size_t last = std::min(first + kLockstepBlockDies, live.size());
    std::unique_ptr<LaneSet> set = take_lane_set();
    // Lane 0 is die live[0] in every block (see batch.h): blocks after
    // the first march the leader row ahead of their own dies.
    const std::size_t lead = b == 0 ? 0 : 1;
    std::vector<circuit::Netlist*> variants(lead + last - first);
    for (std::size_t lane = 0; lane < variants.size(); ++lane) {
      circuit::Netlist& net = set->nets[lane];
      if (lane < lead) {
        circuit::set_values(net, leader_row);
      } else {
        draw_row(plan, population[live[first + lane - lead]], set->row);
        circuit::set_values(net, set->row);
      }
      variants[lane] = &net;
    }
    circuit::BatchTransientOptions opts = plan.transient;
    opts.erc = opts.erc && b == 0;  // every block shares lane 0's topology
    const circuit::BatchTransientReport sim =
        circuit::BatchTransient(opts).run(variants);
    // Scoring reads the march's waveform slab, not the lanes, so the set
    // goes back first.
    {
      const std::lock_guard<std::mutex> lock(free_mu);
      free_sets.push_back(std::move(set));
    }
    // The block's dies score side by side, fire as one checkpoint, then
    // move into their (not necessarily adjacent) slots.
    std::vector<DeviceOutcome> scored(last - first);
    for (std::size_t k = first; k < last; ++k) {
      score_lane(population[live[k]], live[k], sim.variants[lead + k - first],
                 plan, scored[k - first]);
    }
    block_seconds[b] = seconds_since(tb);
    if (on_complete) on_complete(scored);
    for (std::size_t k = first; k < last; ++k) {
      slots[live[k]] = std::move(scored[k - first]);
    }
  });

  BatchReport report = aggregate(std::move(slots), threads);
  report.wall_seconds = seconds_since(t0);
  // Lanes of a block share one march, so per-die elapsed time is not
  // separable; cpu_seconds sums the lot setup and the blocks' own times.
  report.cpu_seconds = setup_seconds;
  for (const double s : block_seconds) report.cpu_seconds += s;
  return report;
}

}  // namespace msbist::production
