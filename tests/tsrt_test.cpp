// Unit tests for the transient-response testing engine (approach 1 and
// approach 2) and the example circuits.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/vec.h"
#include "dsp_test_util.h"
#include "faults/universe.h"
#include "tsrt/detector.h"
#include "tsrt/example_circuits.h"
#include "tsrt/impulse_compare.h"
#include "tsrt/transient_test.h"

namespace msbist::tsrt {
namespace {

TEST(Detector, IdenticalSignalsGiveZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(detection_percent(a, a), 0.0);
}

TEST(Detector, FullyDifferentGivesHundred) {
  const std::vector<double> a{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> b{2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(detection_percent(a, b), 100.0);
}

TEST(Detector, ToleranceScalesWithReference) {
  const std::vector<double> a{10.0, 0.0, 0.0, 0.0};
  std::vector<double> b = a;
  b[1] = 0.4;  // below 5 % of max|ref| = 0.5
  EXPECT_DOUBLE_EQ(detection_percent(a, b), 0.0);
  b[1] = 0.6;  // above
  EXPECT_DOUBLE_EQ(detection_percent(a, b), 25.0);
}

TEST(Detector, SizeMismatchThrows) {
  EXPECT_THROW(detection_percent({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(detection_percent({}, {}), std::invalid_argument);
}

TEST(Detector, IsDetectedThreshold) {
  EXPECT_TRUE(is_detected(5.0));
  EXPECT_FALSE(is_detected(4.9));
}

TEST(ExampleCircuits, TransistorCountsMatchPaper) {
  EXPECT_EQ(build_circuit(CircuitKind::kOp1Follower).transistor_count, 13);
  EXPECT_EQ(build_circuit(CircuitKind::kScIntegratorAlone).transistor_count, 15);
  EXPECT_EQ(build_circuit(CircuitKind::kScIntegratorComparator).transistor_count, 28);
}

TEST(ExampleCircuits, NodeMapsResolve) {
  for (auto kind : {CircuitKind::kOp1Follower, CircuitKind::kScIntegratorAlone,
                    CircuitKind::kScIntegratorComparator}) {
    ExampleCircuit c = build_circuit(kind);
    for (int node = 1; node <= 9; ++node) {
      EXPECT_NO_THROW(c.netlist.find_node(c.node_map(node)))
          << circuit_name(kind) << " node " << node;
    }
  }
}

TEST(ExampleCircuits, NamesAreDescriptive) {
  EXPECT_NE(circuit_name(CircuitKind::kOp1Follower).find("circuit 1"),
            std::string::npos);
  EXPECT_NE(circuit_name(CircuitKind::kScIntegratorComparator).find("circuit 2"),
            std::string::npos);
  EXPECT_NE(circuit_name(CircuitKind::kScIntegratorAlone).find("circuit 3"),
            std::string::npos);
}

TEST(TransientTest, GoldenOp1FollowerTracksStimulus) {
  const TsrtRun run =
      run_transient_test(CircuitKind::kOp1Follower, std::nullopt,
                         paper_options(CircuitKind::kOp1Follower));
  ASSERT_FALSE(run.response.empty());
  // A healthy follower's correlation signature peaks near 1 (unity gain).
  EXPECT_GT(dsp::max_abs(run.correlation), 0.7);
  // The response must visit both halves of the 0..5 V swing.
  EXPECT_GT(dsp::max(run.response), 3.5);
  EXPECT_LT(dsp::min(run.response), 1.5);
}

TEST(TransientTest, RunsAreDeterministic) {
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const TsrtRun a = run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  const TsrtRun b = run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  EXPECT_EQ(a.response, b.response);
  EXPECT_EQ(a.correlation, b.correlation);
}

TEST(TransientTest, FaultFreeSelfComparisonIsClean) {
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const TsrtRun a = run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  const TsrtRun b = run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  EXPECT_DOUBLE_EQ(correlation_detection_percent(a, b), 0.0);
}

TEST(TransientTest, StuckOutputIsDetected) {
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const TsrtRun golden =
      run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  const TsrtRun faulty = run_transient_test(
      CircuitKind::kOp1Follower, faults::FaultSpec::stuck_at(3, false), opts);
  EXPECT_GT(correlation_detection_percent(golden, faulty), 50.0);
}

TEST(TransientTest, AllCircuit1FaultsDetectedByCombinedSignature) {
  // Figure 4's headline: every faulty circuit shows "a significant number
  // of time instances when detection is likely".
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const TsrtRun golden =
      run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  for (const auto& f : faults::op1_fault_universe()) {
    const TsrtRun faulty = run_transient_test(CircuitKind::kOp1Follower, f, opts);
    EXPECT_GT(combined_detection_percent(golden, faulty), 30.0) << f.label;
  }
}

TEST(TransientTest, NoiseRobustness) {
  // The correlation signature survives measurement noise (the technique's
  // point): detection of a hard fault changes little at 40 dB SNR-ish
  // noise levels, and the fault-free self-comparison stays quiet.
  TsrtOptions noisy = paper_options(CircuitKind::kOp1Follower);
  noisy.noise_sigma = 0.05;  // 50 mV RMS on a 5 V swing
  noisy.noise_seed = 77;
  const TsrtRun golden_clean = run_transient_test(
      CircuitKind::kOp1Follower, std::nullopt, paper_options(CircuitKind::kOp1Follower));
  TsrtOptions noisy2 = noisy;
  noisy2.noise_seed = 78;
  const TsrtRun healthy_noisy =
      run_transient_test(CircuitKind::kOp1Follower, std::nullopt, noisy2);
  EXPECT_LT(correlation_detection_percent(golden_clean, healthy_noisy), 10.0);
  const TsrtRun faulty_noisy = run_transient_test(
      CircuitKind::kOp1Follower, faults::FaultSpec::stuck_at(7, true), noisy);
  EXPECT_GT(correlation_detection_percent(golden_clean, faulty_noisy), 50.0);
}

TEST(TransientTest, IddSignatureCatchesBiasFault) {
  // SA0 at the bias node barely moves the voltage signature of the
  // follower but blows the supply current — the dynamic-Idd channel
  // (paper refs [10, 11]) catches it.
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const TsrtRun golden =
      run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  const TsrtRun faulty = run_transient_test(
      CircuitKind::kOp1Follower, faults::FaultSpec::stuck_at(4, false), opts);
  EXPECT_GT(idd_detection_percent(golden, faulty), 90.0);
}

TEST(TransientTest, InvalidDtThrows) {
  TsrtOptions opts;
  opts.dt_override = 1.0;  // larger than the bit time
  EXPECT_THROW(run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts),
               std::invalid_argument);
}

// --- Approach 2: ARX / impulse-response comparison ---

TEST(Arx, RecoversKnownFirstOrderSystem) {
  // y[n+1] = 0.9 y[n] + 0.25 u[n] + 0.01, driven by a deterministic
  // pseudo-random input.
  std::vector<double> u(200), y(201, 0.0);
  unsigned state = 1;
  for (auto& v : u) {
    state = state * 1664525u + 1013904223u;
    v = (static_cast<double>(state >> 16 & 0xFFFF) / 65535.0) - 0.5;
  }
  for (std::size_t n = 0; n < u.size(); ++n) {
    y[n + 1] = 0.9 * y[n] + 0.25 * u[n] + 0.01;
  }
  y.pop_back();
  const ArxFit fit = fit_arx(u, y);
  EXPECT_NEAR(fit.a, 0.9, 1e-6);
  EXPECT_NEAR(fit.b, 0.25, 1e-6);
  EXPECT_NEAR(fit.c, 0.01, 1e-6);
  EXPECT_LT(fit.residual_rms, 1e-9);
}

TEST(Arx, ImpulseOfFitMatchesTheory) {
  ArxFit fit;
  fit.a = 0.5;
  fit.b = 2.0;
  const auto h = fit.impulse(5);
  EXPECT_NEAR(h[0], 0.0, 1e-12);
  EXPECT_NEAR(h[1], 2.0, 1e-12);
  EXPECT_NEAR(h[2], 1.0, 1e-12);
  EXPECT_NEAR(h[3], 0.5, 1e-12);
}

TEST(Arx, ScIntegratorImpulseIsDelayedStep) {
  // The paper's design equation H(z) = z^-1/(k(1-z^-1)) is the fit a = 1,
  // b = 1/k: impulse response 0, 1/k, 1/k, ... (an accumulator).
  const double k = 6.8;
  ArxFit fit;
  fit.a = 1.0;
  fit.b = 1.0 / k;
  const auto h = fit.impulse(6);
  ASSERT_EQ(h.size(), 6u);
  EXPECT_NEAR(h[0], 0.0, 1e-15);
  for (std::size_t i = 1; i < h.size(); ++i) EXPECT_NEAR(h[i], 1.0 / k, 1e-12);
  EXPECT_TRUE(fit.impulse(0).empty());
  EXPECT_EQ(fit.impulse(1), std::vector<double>{0.0});
}

TEST(Arx, ValidationThrows) {
  EXPECT_THROW(fit_arx({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_arx(std::vector<double>(10, 0.0), std::vector<double>(9, 0.0)),
               std::invalid_argument);
}

TEST(Arx, SamplePerCycle) {
  std::vector<double> w(100);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i);
  const auto s = sample_per_cycle(w, 1.0, 10.0);
  ASSERT_EQ(s.size(), 10u);
  EXPECT_DOUBLE_EQ(s[0], 9.0);
  EXPECT_DOUBLE_EQ(s[9], 99.0);
  EXPECT_THROW(sample_per_cycle(w, 0.0, 10.0), std::invalid_argument);
}

TEST(Arx, GoldenScIntegratorMatchesDesignEquation) {
  // The whole point of the paper's design equation: the transistor-level
  // SC integrator must fit H(z) = b z^-1/(1 - a z^-1) with b ~ -1/6.8
  // (inverting) and a near 1 (bounded by the test-config reset leak).
  const TsrtOptions opts = paper_options(CircuitKind::kScIntegratorAlone);
  const TsrtRun run =
      run_transient_test(CircuitKind::kScIntegratorAlone, std::nullopt, opts);
  const ArxFit fit =
      fit_sc_cycles(run.stimulus, run.response, run.dt, kScCycleSeconds, 2.5);
  EXPECT_NEAR(fit.b, -1.0 / 6.8, 0.01);
  EXPECT_GT(fit.a, 0.9);
  EXPECT_LT(fit.a, 1.0);
  EXPECT_LT(fit.residual_rms, 1e-3);
}

TEST(Arx, ScFaultsShiftTheFit) {
  const TsrtOptions opts = paper_options(CircuitKind::kScIntegratorAlone);
  const TsrtRun golden =
      run_transient_test(CircuitKind::kScIntegratorAlone, std::nullopt, opts);
  const ArxFit gfit =
      fit_sc_cycles(golden.stimulus, golden.response, golden.dt, kScCycleSeconds, 2.5);
  // A stuck op-amp internal node must destroy the integrator transfer.
  const TsrtRun faulty = run_transient_test(
      CircuitKind::kScIntegratorAlone, faults::FaultSpec::stuck_at(7, false), opts);
  const ArxFit ffit =
      fit_sc_cycles(faulty.stimulus, faulty.response, faulty.dt, kScCycleSeconds, 2.5);
  EXPECT_GT(impulse_detection_percent(gfit, ffit), 50.0);
}

}  // namespace
}  // namespace msbist::tsrt
