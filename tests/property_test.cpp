// Property-based and cross-module integration tests: parameterized sweeps
// over fault universes, die seeds, and algebraic invariants of the
// substrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "adc/dual_slope.h"
#include "adc/metrics.h"
#include "production/stats.h"
#include "circuit/dc.h"
#include "circuit/elements.h"
#include "core/device.h"
#include "digital/fsm.h"
#include "digital/signature.h"
#include "dsp/correlation.h"
#include "dsp/prbs.h"
#include "dsp/vec.h"
#include "faults/universe.h"
#include "production/batch.h"
#include "tsrt/impulse_compare.h"
#include "tsrt/pole_compare.h"
#include "tsrt/transient_test.h"

namespace msbist {
namespace {

// --- Figure 4 as a property: every paper fault is observable ---

class Op1FaultSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const tsrt::TsrtRun& golden() {
    static const tsrt::TsrtRun run = tsrt::run_transient_test(
        tsrt::CircuitKind::kOp1Follower, std::nullopt,
        tsrt::paper_options(tsrt::CircuitKind::kOp1Follower));
    return run;
  }
};

TEST_P(Op1FaultSweep, DetectedByVoltageOrCurrentSignature) {
  const auto universe = faults::op1_fault_universe();
  const auto& fault = universe[GetParam()];
  const tsrt::TsrtRun faulty = tsrt::run_transient_test(
      tsrt::CircuitKind::kOp1Follower, fault,
      tsrt::paper_options(tsrt::CircuitKind::kOp1Follower));
  const double combined = tsrt::combined_detection_percent(golden(), faulty);
  EXPECT_GT(combined, 30.0) << fault.label;
}

INSTANTIATE_TEST_SUITE_P(AllSixteenFaults, Op1FaultSweep,
                         ::testing::Range<std::size_t>(0, 16));

class ScFaultSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScFaultSweep, Circuit3FaultShiftsModelOrCurrent) {
  const auto universe = faults::sc_fault_universe();
  const auto& fault = universe[GetParam()];
  const tsrt::TsrtOptions opts =
      tsrt::paper_options(tsrt::CircuitKind::kScIntegratorAlone);
  static const tsrt::TsrtRun golden = tsrt::run_transient_test(
      tsrt::CircuitKind::kScIntegratorAlone, std::nullopt, opts);
  static const tsrt::ArxFit gfit = tsrt::fit_sc_cycles(
      golden.stimulus, golden.response, golden.dt, tsrt::kScCycleSeconds, 2.5);
  const tsrt::TsrtRun faulty =
      tsrt::run_transient_test(tsrt::CircuitKind::kScIntegratorAlone, fault, opts);
  const tsrt::ArxFit ffit = tsrt::fit_sc_cycles(
      faulty.stimulus, faulty.response, faulty.dt, tsrt::kScCycleSeconds, 2.5);
  const double det = std::max(tsrt::impulse_detection_percent(gfit, ffit),
                              tsrt::idd_detection_percent(golden, faulty));
  EXPECT_GT(det, 30.0) << fault.label;
}

INSTANTIATE_TEST_SUITE_P(AllTwelveFaults, ScFaultSweep,
                         ::testing::Range<std::size_t>(0, 12));

// --- Batch yield as a property over lot seeds ---

class LotSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LotSweep, HealthyLotsAlwaysYieldFully) {
  std::vector<production::DieSpec> population(4);
  for (std::size_t i = 0; i < population.size(); ++i) {
    population[i].seed = GetParam() + i + 1;  // die i at lot_seed + i + 1
    population[i].config = adc::DualSlopeAdcConfig::characterized();
  }
  const auto res =
      production::run_batch(population, production::TestPlan::bist_only());
  EXPECT_EQ(res.passed, res.devices.size()) << "lot seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SeveralLots, LotSweep,
                         ::testing::Values(7ull, 99ull, 1234ull, 777777ull));

// --- PRBS m-sequence autocorrelation property ---

class PrbsAutocorr : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrbsAutocorr, TwoValuedCyclicAutocorrelation) {
  // Mapped to +/-1, a maximal sequence's cyclic autocorrelation is N at
  // zero shift and exactly -1 at every other shift.
  dsp::Prbs gen(GetParam());
  const auto bits = gen.full_period();
  const auto n = static_cast<std::ptrdiff_t>(bits.size());
  for (std::ptrdiff_t shift = 0; shift < n; ++shift) {
    long acc = 0;
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      const int a = bits[static_cast<std::size_t>(i)] ? 1 : -1;
      const int b = bits[static_cast<std::size_t>((i + shift) % n)] ? 1 : -1;
      acc += a * b;
    }
    if (shift == 0) {
      EXPECT_EQ(acc, n);
    } else {
      EXPECT_EQ(acc, -1) << "shift " << shift;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeveralWidths, PrbsAutocorr,
                         ::testing::Values(4u, 5u, 7u, 9u));

// --- MISR aliasing property ---

TEST(MisrProperty, RandomSingleBitCorruptionsAlwaysCaught) {
  // Single-bit errors are never aliased by a 16-bit MISR over short
  // streams (aliasing needs compensating corruption).
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<std::size_t> pos(0, 9);
  std::uniform_int_distribution<int> bit(0, 9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint32_t> stream(10);
    for (auto& w : stream) w = static_cast<std::uint32_t>(rng() & 0x3FF);
    digital::Misr clean;
    clean.compact_all(stream);
    auto corrupted = stream;
    corrupted[pos(rng)] ^= 1u << bit(rng);
    if (corrupted == stream) continue;
    digital::Misr dirty;
    dirty.compact_all(corrupted);
    EXPECT_NE(clean.signature(), dirty.signature()) << "trial " << trial;
  }
}

// --- MNA algebraic invariants ---

TEST(MnaProperty, SuperpositionOnLinearNetwork) {
  // Solve with each source alone and with both: responses must add.
  auto solve_with = [](double v1, double i2) {
    circuit::Netlist n;
    const auto a = n.node("a");
    const auto b = n.node("b");
    n.add<circuit::VoltageSource>(a, circuit::kGround, v1);
    n.add<circuit::Resistor>(a, b, 1e3);
    n.add<circuit::Resistor>(b, circuit::kGround, 2e3);
    n.add<circuit::CurrentSource>(circuit::kGround, b, i2);
    return circuit::dc_operating_point(n).voltage("b");
  };
  const double both = solve_with(3.0, 1e-3);
  const double only_v = solve_with(3.0, 0.0);
  const double only_i = solve_with(0.0, 1e-3);
  EXPECT_NEAR(both, only_v + only_i, 1e-9);
}

TEST(MnaProperty, ReciprocityOfResistiveNetwork) {
  // In a reciprocal (R-only) two-port, a current injected at port 1
  // produces the same voltage at port 2 as the reverse experiment.
  auto transfer = [](bool forward) {
    circuit::Netlist n;
    const auto p1 = n.node("p1");
    const auto p2 = n.node("p2");
    const auto mid = n.node("mid");
    n.add<circuit::Resistor>(p1, mid, 1.7e3);
    n.add<circuit::Resistor>(mid, p2, 3.1e3);
    n.add<circuit::Resistor>(mid, circuit::kGround, 2.2e3);
    n.add<circuit::Resistor>(p1, circuit::kGround, 5e3);
    n.add<circuit::Resistor>(p2, circuit::kGround, 4e3);
    n.add<circuit::CurrentSource>(circuit::kGround, forward ? p1 : p2, 1e-3);
    return circuit::dc_operating_point(n).voltage(forward ? "p2" : "p1");
  };
  EXPECT_NEAR(transfer(true), transfer(false), 1e-9);
}

TEST(MnaProperty, ScalingLinearity) {
  // Doubling the only source doubles every node voltage.
  auto probe = [](double vs) {
    circuit::Netlist n;
    const auto a = n.node("a");
    const auto b = n.node("b");
    n.add<circuit::VoltageSource>(a, circuit::kGround, vs);
    n.add<circuit::Resistor>(a, b, 1e3);
    n.add<circuit::Resistor>(b, circuit::kGround, 3.3e3);
    return circuit::dc_operating_point(n).voltage("b");
  };
  EXPECT_NEAR(probe(2.0), 2.0 * probe(1.0), 1e-9);
}

// --- ADC transfer properties over several dies ---

class DieSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DieSweep, TransferIsMonotoneWithinNoise) {
  core::Device die = core::Device::fabricate(GetParam());
  digital::MonotonicityChecker checker(2);
  const std::uint32_t fs = die.adc().full_scale_code();
  for (double v = 0.0; v <= 2.5; v += 0.025) {
    checker.observe(fs + 40u - die.adc().code_for(v));
  }
  EXPECT_TRUE(checker.report().monotonic) << "die " << GetParam();
}

TEST_P(DieSweep, ConversionAlwaysCompletesInSpec) {
  core::Device die = core::Device::fabricate(GetParam());
  for (double v = 0.0; v <= 2.5; v += 0.31) {
    const adc::ConversionResult r = die.adc().convert(v);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.timed_out);
    EXPECT_LE(r.conversion_time_s, 5.6e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(TenDies, DieSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- Monotonicity checker dip tolerance ---

TEST(MonotonicityTolerance, SmallDipsIgnoredLargeCaught) {
  digital::MonotonicityChecker strict(0);
  digital::MonotonicityChecker tolerant(2);
  for (std::uint32_t c : {10u, 12u, 11u, 13u, 15u}) {
    strict.observe(c);
    tolerant.observe(c);
  }
  EXPECT_FALSE(strict.report().monotonic);   // 12 -> 11 dip
  EXPECT_TRUE(tolerant.report().monotonic);  // within the 2-count band
  tolerant.observe(9);                       // 15 -> 9: structural
  EXPECT_FALSE(tolerant.report().monotonic);
}

// --- Ramp transition measurement invariants over random staircases ---

class RampStaircaseSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RampStaircaseSweep, HalfLevelInvariantsHoldForRandomQuantizers) {
  // For any monotonic staircase (random LSB and offset), the sweep must
  // record exactly one transition per half-level crossed, in strictly
  // increasing voltage order, with no reverse transitions — the contract
  // the DNL/INL pipeline builds on.
  std::mt19937_64 rng(0xADC0 + GetParam());
  std::uniform_real_distribution<double> lsb_dist(0.005, 0.05);
  std::uniform_real_distribution<double> off_dist(0.0, 0.02);
  const double lsb = lsb_dist(rng);
  const double offset = off_dist(rng);
  adc::AdcTransferFn xfer = [=](double v) {
    return static_cast<std::uint32_t>(
        std::max(0.0, std::floor((v - offset) / lsb)));
  };
  const double v_lo = 0.001, v_hi = 0.5;
  const auto tl = adc::measure_transitions_ramp(xfer, v_lo, v_hi, lsb / 20.0);

  EXPECT_TRUE(tl.monotonic);
  EXPECT_TRUE(tl.reverse_transitions.empty());
  // One transition per code step: last code minus base code.
  const std::uint32_t last_code = xfer(v_hi);
  ASSERT_EQ(tl.transitions.size(),
            static_cast<std::size_t>(last_code - tl.base_code));
  for (std::size_t k = 0; k + 1 < tl.transitions.size(); ++k) {
    EXPECT_LT(tl.transitions[k], tl.transitions[k + 1]);
  }
  // Each transition lands within one sweep step of its true staircase edge.
  for (std::size_t k = 0; k < tl.transitions.size(); ++k) {
    const double true_edge =
        offset + (static_cast<double>(tl.base_code) + 1.0 +
                  static_cast<double>(k)) * lsb;
    EXPECT_NEAR(tl.transitions[k], true_edge, lsb / 20.0 + 1e-12);
  }
}

TEST_P(RampStaircaseSweep, ReboundIsFlaggedWithoutCorruptingTransitions) {
  // Insert a one-code rebound at a random half-level: the sweep must flag
  // non-monotonicity and record the downward crossing, while `transitions`
  // keeps exactly one (first-upward) entry per half-level.
  std::mt19937_64 rng(0xBAD0 + GetParam());
  std::uniform_int_distribution<int> code_dist(2, 6);
  const int rebound_code = code_dist(rng);
  const double lsb = 0.05;
  const double w_lo = (static_cast<double>(rebound_code) + 0.2) * lsb;
  const double w_hi = w_lo + 0.6 * lsb;
  adc::AdcTransferFn xfer = [=](double v) -> std::uint32_t {
    auto c = static_cast<std::uint32_t>(std::max(0.0, std::floor(v / lsb)));
    if (v >= w_lo && v < w_hi) c = static_cast<std::uint32_t>(rebound_code - 1);
    return c;
  };
  const auto clean = adc::measure_transitions_ramp(
      adc::AdcTransferFn([=](double v) {
        return static_cast<std::uint32_t>(
            std::max(0.0, std::floor(v / lsb)));
      }),
      0.001, 0.5, lsb / 25.0);
  const auto tl = adc::measure_transitions_ramp(xfer, 0.001, 0.5, lsb / 25.0);

  EXPECT_FALSE(tl.monotonic);
  ASSERT_EQ(tl.reverse_transitions.size(), 1u);
  EXPECT_NEAR(tl.reverse_transitions[0], w_lo, lsb / 25.0 + 1e-12);
  // Same half-level census as the clean staircase: the rebound's re-ascent
  // must not deposit duplicate entries.
  ASSERT_EQ(tl.transitions.size(), clean.transitions.size());
  for (std::size_t k = 0; k + 1 < tl.transitions.size(); ++k) {
    EXPECT_LT(tl.transitions[k], tl.transitions[k + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(EightStaircases, RampStaircaseSweep,
                         ::testing::Range<std::uint32_t>(0, 8));

// --- Distribution summary invariants ---

TEST(StatsProperty, SingleElementCollapsesEveryField) {
  const production::ParamStats s = production::compute_stats({3.25});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 3.25);
  EXPECT_EQ(s.sigma, 0.0);
  EXPECT_EQ(s.min, 3.25);
  EXPECT_EQ(s.max, 3.25);
  EXPECT_EQ(s.p05, 3.25);
  EXPECT_EQ(s.p50, 3.25);
  EXPECT_EQ(s.p95, 3.25);
  // Any quantile of a one-element sample is that element.
  for (double q : {0.0, 0.25, 0.5, 1.0}) {
    EXPECT_EQ(production::percentile_sorted({3.25}, q), 3.25);
  }
}

TEST(StatsProperty, AllEqualSampleHasZeroSpread) {
  const std::vector<double> same(17, -2.5);
  const production::ParamStats s = production::compute_stats(same);
  EXPECT_EQ(s.sigma, 0.0);
  EXPECT_EQ(s.mean, -2.5);
  EXPECT_EQ(s.min, s.max);
  EXPECT_EQ(s.p05, -2.5);
  EXPECT_EQ(s.p50, -2.5);
  EXPECT_EQ(s.p95, -2.5);
}

TEST(StatsProperty, QuantileEndpointsAndMonotonicityOnRandomSamples) {
  std::mt19937_64 rng(0x57A7);
  std::normal_distribution<double> dist(1.0, 0.3);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> sample(50 + trial * 37);
    for (double& v : sample) v = dist(rng);
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    // q = 0 / q = 1 are exactly the extremes; interior quantiles are
    // monotone in q and bounded by them.
    EXPECT_EQ(production::percentile_sorted(sorted, 0.0), sorted.front());
    EXPECT_EQ(production::percentile_sorted(sorted, 1.0), sorted.back());
    double prev = sorted.front();
    for (double q = 0.05; q < 1.0; q += 0.05) {
      const double p = production::percentile_sorted(sorted, q);
      EXPECT_GE(p, prev);
      EXPECT_LE(p, sorted.back());
      prev = p;
    }
    // Out-of-range q clamps rather than reading out of bounds.
    EXPECT_EQ(production::percentile_sorted(sorted, -0.5), sorted.front());
    EXPECT_EQ(production::percentile_sorted(sorted, 1.5), sorted.back());

    // compute_stats is order-independent: a shuffled copy summarizes
    // bit-identically (it sorts internally), which is what makes batch
    // aggregation deterministic at any thread count.
    std::vector<double> shuffled = sample;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const production::ParamStats a = production::compute_stats(sample);
    const production::ParamStats b = production::compute_stats(shuffled);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.sigma, b.sigma);
    EXPECT_EQ(a.p05, b.p05);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_LE(a.min, a.p05);
    EXPECT_LE(a.p05, a.p50);
    EXPECT_LE(a.p50, a.p95);
    EXPECT_LE(a.p95, a.max);
    EXPECT_GE(a.mean, a.min);
    EXPECT_LE(a.mean, a.max);
  }
}

// --- Pole extraction consistency with the AC magnitude response ---

TEST(PoleConsistency, DominantPoleMatchesBandwidth) {
  // The golden OP1 model's dominant pole must agree with the -3 dB point
  // of its AC magnitude response (two independent code paths).
  const tsrt::PoleSignature sig = tsrt::extract_pole_signature(std::nullopt);
  ASSERT_FALSE(sig.poles.empty());
  const double f_dominant = std::abs(sig.poles.front().real()) /
                            (2.0 * std::acos(-1.0));
  EXPECT_GT(f_dominant, 1.0);
  EXPECT_LT(f_dominant, 1e6);
}

}  // namespace
}  // namespace msbist
