// Production batch-test engine: determinism across thread counts, yield
// math on hand-built populations, seeding, stats, and the tier-enum API.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/transient.h"
#include "core/device.h"
#include "core/job.h"
#include "core/json_value.h"
#include "production/batch.h"
#include "service/dispatch.h"

namespace {

using namespace msbist;

/// The engines report a whole executor slot at once; feed its dies to a
/// per-die callback in slot order.
production::DeviceCompleteFn each_die(
    std::function<void(std::size_t index, const production::DeviceOutcome&)> fn) {
  return [fn = std::move(fn)](std::span<const production::DeviceOutcome> slot) {
    for (const production::DeviceOutcome& die : slot) fn(die.index, die);
  };
}

production::TestPlan quick_full_plan() {
  production::TestPlan plan = production::TestPlan::full();
  plan.fault_spot_check = false;  // keep the test fast; spot check has its own
  return plan;
}

TEST(ProductionBatch, DeviceSeedsAreStableNonzeroAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = production::device_seed(1995, i);
    EXPECT_NE(s, 0u);
    EXPECT_EQ(s, production::device_seed(1995, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across the batch
  EXPECT_NE(production::device_seed(1995, 0), production::device_seed(1996, 0));
}

TEST(ProductionBatch, BitIdenticalReportAcrossThreadCounts) {
  production::BatchConfig cfg;
  cfg.device_count = 8;
  cfg.batch_seed = 42;
  cfg.plan = quick_full_plan();

  cfg.threads = 1;
  const production::BatchReport one = production::run_batch(cfg);
  cfg.threads = 2;
  const production::BatchReport two = production::run_batch(cfg);
  cfg.threads = 8;
  const production::BatchReport eight = production::run_batch(cfg);

  EXPECT_EQ(one.canonical_outcomes(), two.canonical_outcomes());
  EXPECT_EQ(one.canonical_outcomes(), eight.canonical_outcomes());
  EXPECT_EQ(two.threads_used, 2u);
  EXPECT_EQ(eight.threads_used, 8u);

  // Spot-check bit-identity of the underlying doubles, not just the text.
  ASSERT_EQ(one.devices.size(), eight.devices.size());
  for (std::size_t i = 0; i < one.devices.size(); ++i) {
    EXPECT_EQ(one.devices[i].metrics.offset_lsb,
              eight.devices[i].metrics.offset_lsb);
    EXPECT_EQ(one.devices[i].metrics.max_abs_inl,
              eight.devices[i].metrics.max_abs_inl);
    EXPECT_EQ(one.devices[i].outcome.pass, eight.devices[i].outcome.pass);
  }
  EXPECT_EQ(one.offset_lsb.mean, eight.offset_lsb.mean);
  EXPECT_EQ(one.max_abs_dnl.p95, eight.max_abs_dnl.p95);
}

TEST(ProductionBatch, YieldMathOnHandBuiltPopulation) {
  const adc::DualSlopeAdcConfig healthy =
      adc::DualSlopeAdcConfig::characterized();

  adc::DualSlopeAdcConfig counter_fault = healthy;
  counter_fault.counter_faults.stuck_bit = 4;
  adc::DualSlopeAdcConfig control_fault = healthy;
  control_fault.control_faults.stuck_phase = digital::ConvPhase::kIntegrate;

  // Seeds 1996..1998 are dies of the paper lot, known to pass BIST.
  std::vector<production::DieSpec> pop;
  pop.push_back({1996, healthy, "good A"});
  pop.push_back({1997, healthy, "good B"});
  pop.push_back({1998, healthy, "good C"});
  pop.push_back({1996, counter_fault, "counter stuck"});
  pop.push_back({1996, control_fault, "control frozen"});

  const production::BatchReport rep =
      production::run_batch(pop, production::TestPlan::bist_only());

  EXPECT_EQ(rep.devices.size(), 5u);
  EXPECT_EQ(rep.passed, 3u);
  EXPECT_DOUBLE_EQ(rep.yield(), 0.6);
  EXPECT_FALSE(rep.outcome().pass);

  // The healthy dies fail no tier; each faulty die fails at least one.
  std::set<std::size_t> failing;
  for (const auto& per_tier : rep.tier_failures) {
    failing.insert(per_tier.begin(), per_tier.end());
  }
  EXPECT_EQ(failing, (std::set<std::size_t>{3, 4}));
  EXPECT_TRUE(rep.devices[0].failed_tiers.empty());
  EXPECT_FALSE(rep.devices[3].failed_tiers.empty());
  EXPECT_FALSE(rep.devices[4].failed_tiers.empty());
  // The stuck counter bit corrupts codes -> the compressed signature
  // catches it (the paper's fault-to-symptom map).
  EXPECT_FALSE(rep.devices[3].bist.compressed.pass);
  // The frozen control FSM stops conversions -> the digital tier fails.
  EXPECT_FALSE(rep.devices[4].bist.digital.pass);
}

TEST(ProductionBatch, PaperPopulationPassesFullPlan) {
  const production::BatchReport rep = production::run_batch(
      production::paper_population(), production::TestPlan::full(), 2);
  EXPECT_EQ(rep.devices.size(), 10u);
  EXPECT_EQ(rep.passed, 10u) << rep.canonical_outcomes();
  EXPECT_TRUE(rep.outcome().pass);
  for (const production::DeviceOutcome& d : rep.devices) {
    EXPECT_TRUE(d.spot_check.pass()) << d.label;
    EXPECT_EQ(d.spot_check.injected, 6u);
    // The duplicate latch mask shares one clone and the two above-width
    // stuck bits never simulate: 6 injections cost 3 solves.
    EXPECT_EQ(d.spot_check.simulated, 3u);
    EXPECT_EQ(d.spot_check.undetectable, 2u);
  }
  // Distributions cover all ten dies.
  EXPECT_EQ(rep.offset_lsb.count, 10u);
  EXPECT_GT(rep.offset_lsb.sigma, 0.0);
}

TEST(ProductionBatch, CustomTestFnIsUsedAndThreadInvariant) {
  production::BatchConfig cfg;
  cfg.device_count = 17;
  cfg.batch_seed = 7;
  const auto pop = production::make_population(cfg);

  const production::DeviceTestFn fake =
      [](const production::DieSpec& spec,
         const production::TestPlan&) {
        production::DeviceOutcome out;
        out.seed = spec.seed;
        out.label = spec.label;
        out.outcome = (spec.seed % 2 == 0)
                          ? core::Outcome::ok("even seed")
                          : core::Outcome::fail("odd seed");
        return out;
      };

  const auto serial = production::run_batch(pop, {}, 1, fake);
  const auto parallel = production::run_batch(pop, {}, 4, fake);
  EXPECT_EQ(serial.canonical_outcomes(), parallel.canonical_outcomes());

  std::size_t expect_pass = 0;
  for (const auto& d : pop) {
    if (d.seed % 2 == 0) ++expect_pass;
  }
  EXPECT_EQ(serial.passed, expect_pass);
}

TEST(ProductionBatch, ThrowingTestFnDegradesDieWithoutAbortingBatch) {
  production::BatchConfig cfg;
  cfg.device_count = 6;
  cfg.batch_seed = 11;
  const auto pop = production::make_population(cfg);

  // Die index 2's tester hits a solver failure mid-procedure; die index
  // 4's tester dies on an untyped exception. Both must degrade to
  // structured failing outcomes, and the other four dies pass untouched.
  const production::DeviceTestFn chaos =
      [](const production::DieSpec& spec, const production::TestPlan&) {
        if (spec.label == "die 3") {
          core::Failure f;
          f.code = core::ErrorCode::kNonConvergent;
          f.analysis = "transient";
          f.detail = "rescue ladder exhausted";
          core::throw_failure(std::move(f));
        }
        if (spec.label == "die 5") throw std::runtime_error("socket jam");
        production::DeviceOutcome out;
        out.seed = spec.seed;
        out.label = spec.label;
        out.outcome = core::Outcome::ok("clean");
        return out;
      };

  const auto serial = production::run_batch(pop, {}, 1, chaos);
  const auto parallel = production::run_batch(pop, {}, 4, chaos);
  EXPECT_EQ(serial.canonical_outcomes(), parallel.canonical_outcomes());

  ASSERT_EQ(serial.devices.size(), 6u);
  EXPECT_EQ(serial.passed, 4u);
  EXPECT_EQ(serial.degraded_count, 2u);
  EXPECT_FALSE(serial.outcome().pass);
  EXPECT_NE(serial.summary().find("2 degraded"), std::string::npos)
      << serial.summary();

  const production::DeviceOutcome& solver_die = serial.devices[2];
  EXPECT_TRUE(solver_die.degraded);
  EXPECT_FALSE(solver_die.outcome.pass);
  ASSERT_EQ(solver_die.failures.size(), 1u);
  EXPECT_EQ(solver_die.failures[0].code, core::ErrorCode::kNonConvergent);

  const production::DeviceOutcome& untyped_die = serial.devices[4];
  EXPECT_TRUE(untyped_die.degraded);
  ASSERT_EQ(untyped_die.failures.size(), 1u);
  EXPECT_EQ(untyped_die.failures[0].code, core::ErrorCode::kInternal);
  EXPECT_NE(untyped_die.failures[0].detail.find("socket jam"),
            std::string::npos);

  const std::string json = core::to_json(serial);
  EXPECT_NE(json.find("\"degraded_count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"non_convergent\""), std::string::npos);
}

TEST(ProductionBatch, StopLeavesUntestedDiesUntouched) {
  production::BatchConfig cfg;
  cfg.device_count = 20;
  const auto pop = production::make_population(cfg);
  std::size_t tested = 0;
  const production::DeviceTestFn count_tests =
      [&tested](const production::DieSpec& spec, const production::TestPlan&) {
        ++tested;
        production::DeviceOutcome out;
        out.seed = spec.seed;
        out.outcome = core::Outcome::ok("tested");
        return out;
      };
  std::vector<std::size_t> completed;
  (void)production::run_batch(
      pop, {}, 1, count_tests, nullptr,
      each_die([&completed](std::size_t index, const production::DeviceOutcome&) {
        completed.push_back(index);
      }),
      [&completed] { return completed.size() >= 3; });
  // No die past the stop is tested, fabricated or checkpointed.
  EXPECT_EQ(tested, 3u);
  EXPECT_EQ(completed, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ProductionBatch, EmptyPopulationIsWellFormed) {
  const production::BatchReport rep =
      production::run_batch({}, production::TestPlan::bist_only(), 4);
  EXPECT_TRUE(rep.devices.empty());
  EXPECT_EQ(rep.passed, 0u);
  EXPECT_DOUBLE_EQ(rep.yield(), 0.0);
  EXPECT_NO_THROW(core::to_json(rep));
}

TEST(ProductionStats, KnownSampleMoments) {
  const production::ParamStats s =
      production::compute_stats({4.0, 2.0, 1.0, 3.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.sigma, std::sqrt(2.5), 1e-12);  // sample stddev of 1..5
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.p05, 1.2);  // linear interpolation at 0.05 * 4 = 0.2
  EXPECT_DOUBLE_EQ(s.p95, 4.8);
}

TEST(ProductionStats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(production::percentile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(production::percentile_sorted({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(production::percentile_sorted({1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(production::percentile_sorted({1.0, 2.0}, 1.0), 2.0);
  const production::ParamStats empty = production::compute_stats({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.sigma, 0.0);
}

TEST(ProductionTier, RunTierIsDeterministicAndFillsItsSlot) {
  const auto cfg = adc::DualSlopeAdcConfig::characterized();
  const bist::BistController ctrl = bist::BistController::typical();

  for (bist::Tier t : bist::kAllTiers) {
    adc::DualSlopeAdc first(cfg);
    adc::DualSlopeAdc second(cfg);
    bist::BistReport rep;
    const core::Outcome out = ctrl.run_tier(t, first, rep);
    // The report-free overload agrees with the slot-filling one.
    const core::Outcome again = ctrl.run_tier(t, second);
    EXPECT_EQ(out.pass, again.pass) << bist::to_string(t);
    EXPECT_EQ(out.detail, again.detail) << bist::to_string(t);
    EXPECT_EQ(rep.tier_pass(t), out.pass) << bist::to_string(t);
  }
}

TEST(ProductionTier, RunAllAggregatesTierOutcomes) {
  const auto cfg = adc::DualSlopeAdcConfig::characterized();
  const bist::BistController ctrl = bist::BistController::typical();

  adc::DualSlopeAdc whole(cfg);
  const bist::BistReport all = ctrl.run_all(whole);

  adc::DualSlopeAdc tiered(cfg);
  bist::BistReport manual;
  bool pass = true;
  for (bist::Tier t : bist::kAllTiers) {
    pass = ctrl.run_tier(t, tiered, manual).pass && pass;
  }
  manual.pass = pass;

  // Same conversion stream order -> bit-identical signatures and flags.
  EXPECT_EQ(all.pass, manual.pass);
  EXPECT_EQ(all.compressed.digital_signature,
            manual.compressed.digital_signature);
  EXPECT_EQ(all.digital.max_conversion_time_s,
            manual.digital.max_conversion_time_s);
  EXPECT_EQ(all.failed_tiers().size(), manual.failed_tiers().size());
  EXPECT_TRUE(all.outcome().pass);
}

TEST(ProductionTier, TierNamesAreStable) {
  EXPECT_STREQ(bist::to_string(bist::Tier::kAnalog), "analog");
  EXPECT_STREQ(bist::to_string(bist::Tier::kRamp), "ramp");
  EXPECT_STREQ(bist::to_string(bist::Tier::kDigital), "digital");
  EXPECT_STREQ(bist::to_string(bist::Tier::kCompressed), "compressed");
}

TEST(ProductionSpotCheck, CatchesInjectedMacroFaults) {
  production::TestPlan plan = production::TestPlan::bist_only();
  plan.fault_spot_check = true;
  production::DieSpec die;
  die.seed = 1996;
  die.config = adc::DualSlopeAdcConfig::characterized();
  die.label = "good";
  const production::DeviceOutcome out = production::test_device(die, plan);
  EXPECT_TRUE(out.spot_check_run);
  EXPECT_EQ(out.spot_check.injected, 6u);
  // 4 detectable injections (one pair is the same latch mask written two
  // ways); the above-width stuck bits are statically undetectable.
  EXPECT_EQ(out.spot_check.detected, 4u);
  EXPECT_EQ(out.spot_check.simulated, 3u);
  EXPECT_EQ(out.spot_check.undetectable, 2u);
  ASSERT_EQ(out.spot_check.undetectable_labels.size(), 2u);
  EXPECT_EQ(out.spot_check.undetectable_labels[0], "counter-stuck-bit12");
  EXPECT_EQ(out.spot_check.undetectable_labels[1], "latch-stuck-low-0xC00");
  EXPECT_TRUE(out.outcome.pass) << out.outcome.detail;
}

TEST(ProductionFullSpec, LatchStuckHighDieFailsSpecAndKeepsTierResults) {
  // Latch bits 2 and 6 stuck high (the spot-check menu's 0x44 mask) push
  // codes past full scale + 40, e.g. 260 | 0x44 = 324. Characterization
  // must map them onto a negative axis, not wrap to ~2^32 codes to sweep.
  production::DieSpec die;
  die.seed = 1996;
  die.config = adc::DualSlopeAdcConfig::characterized();
  die.config.latch_faults.stuck_high_mask = 0x44;
  die.label = "latch 0x44";
  const production::DeviceOutcome out =
      production::test_device(die, production::TestPlan::full());

  EXPECT_FALSE(out.outcome.pass);
  EXPECT_FALSE(out.degraded) << out.outcome.detail;
  ASSERT_TRUE(out.has_metrics);
  EXPECT_FALSE(out.spec.pass) << out.spec.detail;
  EXPECT_NE(out.spec.detail.find("out of spec"), std::string::npos) << out.spec.detail;
  // One DNL entry per code step: bounded by the code range, not by 2^32.
  EXPECT_LT(out.metrics.dnl_lsb.size(), 1024u);
  // The axis starts below zero; the offset is large but not a wrapped one.
  EXPECT_LT(std::abs(out.metrics.offset_lsb), 1024.0);
  // The BIST tiers ran and their results survive next to the spec verdict.
  EXPECT_EQ(out.tiers_run.size(), bist::kAllTiers.size());
  EXPECT_EQ(out.bist.analog.fall_times_s.size(), bist::paper_step_levels().size());
  EXPECT_FALSE(out.bist.ramp.codes.empty());
  EXPECT_FALSE(out.bist.compressed.pass);
  EXPECT_TRUE(out.spot_check_run);
}

TEST(ProductionFullSpec, UnmeasurableTransferFailsSpecAndKeepsTierResults) {
  // A latch that never loads outputs one constant code: no transitions to
  // measure. The spec verdict fails; the die keeps its tier results.
  production::DieSpec die;
  die.seed = 1996;
  die.config = adc::DualSlopeAdcConfig::characterized();
  die.config.latch_faults.load_disabled = true;
  die.label = "latch never loads";
  const production::DeviceOutcome out =
      production::test_device(die, production::TestPlan::full());

  EXPECT_FALSE(out.outcome.pass);
  EXPECT_FALSE(out.has_metrics);
  EXPECT_FALSE(out.spec.pass);
  EXPECT_NE(out.spec.detail.find("characterization aborted"), std::string::npos)
      << out.spec.detail;
  EXPECT_TRUE(out.degraded);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].analysis, "production/full_spec");
  EXPECT_EQ(out.tiers_run.size(), bist::kAllTiers.size());
  EXPECT_EQ(out.bist.analog.fall_times_s.size(), bist::paper_step_levels().size());
  EXPECT_TRUE(out.spot_check_run);
}

bool is_timing_key(const std::string& key) {
  const auto ends_with = [&](std::string_view suffix) {
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with("_seconds") || ends_with("_per_second");
}

/// The report with every wall-clock member removed, at any depth.
core::JsonValue strip_timing(const core::JsonValue& v) {
  if (v.is_object()) {
    core::JsonValue out = core::JsonValue::object();
    for (const auto& [key, child] : v.members()) {
      if (!is_timing_key(key)) out.set(key, strip_timing(child));
    }
    return out;
  }
  if (v.is_array()) {
    core::JsonValue out = core::JsonValue::array();
    for (const core::JsonValue& item : v.items()) out.push_back(strip_timing(item));
    return out;
  }
  return v;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(MSBIST_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ProductionGolden, FullSpecLotMatchesCommittedGolden) {
  // 24 dies of lot 1995 under TestPlan::full() (BIST tiers, full-spec
  // characterization, spot check): canonical outcomes and the report
  // without its timing members, byte for byte, as committed.
  production::BatchConfig cfg;
  cfg.device_count = 24;
  cfg.batch_seed = 1995;
  cfg.threads = 2;
  cfg.plan = production::TestPlan::full();
  const production::BatchReport rep = production::run_batch(cfg);

  EXPECT_EQ(rep.canonical_outcomes(),
            read_golden("fullspec_lot_1995x24.canonical.txt"));
  EXPECT_EQ(strip_timing(core::parse_json(core::to_json(rep))).dump() + "\n",
            read_golden("fullspec_lot_1995x24.report.json"));
}

/// 64-bit FNV-1a over the bit patterns of every node waveform, in
/// node_names() order, then of the time axis: any change to any sample
/// of a die's march changes its digest.
core::Outcome digest_waveforms(const production::DieSpec&,
                               const circuit::LaneWaveforms& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const std::string& name : r.node_names()) {
    for (const double v : r.voltage(name)) mix(v);
  }
  for (const double t : r.time()) mix(t);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return core::Outcome::ok(hex);
}

TEST(ProductionGolden, LockstepScreenMatchesCommittedGolden) {
  // 100 dies of msbistd's lockstep settling screen: three full lane
  // blocks, a 4-die tail, and the leader lane every later block marches
  // ahead of its own dies. The dispatch() report pins the verdicts; the
  // per-die waveform digests pin every node sample of every march.
  const core::JobRequest req = core::JobRequest::from_json_text(
      R"({"kind":"lockstep_batch","device_count":100,"batch_seed":1995,"threads":2})");
  const service::DispatchResult res = service::dispatch(req);
  ASSERT_TRUE(res.batch.has_value());
  EXPECT_EQ(res.batch->canonical_outcomes(),
            read_golden("lockstep_screen_1995x100.canonical.txt"));
  EXPECT_EQ(strip_timing(core::parse_json(res.report_json)).dump() + "\n",
            read_golden("lockstep_screen_1995x100.report.json"));

  production::LockstepPlan plan = service::lockstep_screen_plan();
  plan.evaluate = digest_waveforms;
  const production::BatchReport digests = production::run_batch_lockstep(
      service::lockstep_screen_population(100, 1995), plan, nullptr, {}, 2);
  std::string lines;
  for (const production::DeviceOutcome& d : digests.devices) {
    lines += std::to_string(d.index) + "|" + std::to_string(d.seed) + "|" +
             d.outcome.detail + "\n";
  }
  EXPECT_EQ(lines, read_golden("lockstep_screen_1995x100.waveforms.txt"));
}

}  // namespace
