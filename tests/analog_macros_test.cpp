// Unit tests for the behavioural analogue macros (comparator, SC
// integrator) and the transistor-level OP1 cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "analog/comparator.h"
#include "analog/opamp.h"
#include "circuit/mos.h"
#include "analog/sc_integrator.h"
#include "circuit/dc.h"
#include "circuit/elements.h"
#include "circuit/transient.h"

namespace msbist::analog {
namespace {

TEST(ProcessVariationTest, NominalIsIdentity) {
  ProcessVariation pv = ProcessVariation::nominal();
  EXPECT_DOUBLE_EQ(pv.vary(3.3, 0.5), 3.3);
  EXPECT_DOUBLE_EQ(pv.vary_abs(0.0, 0.5), 0.0);
  EXPECT_TRUE(pv.is_nominal());
}

TEST(ProcessVariationTest, DeterministicPerSeed) {
  ProcessVariation a(42), b(42), c(43);
  const double va = a.vary(1.0, 0.1);
  EXPECT_DOUBLE_EQ(va, b.vary(1.0, 0.1));
  EXPECT_NE(va, c.vary(1.0, 0.1));
}

TEST(ProcessVariationTest, TruncatedAtThreeSigma) {
  ProcessVariation pv(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = pv.vary(1.0, 0.05);
    EXPECT_GE(v, 1.0 - 3 * 0.05);
    EXPECT_LE(v, 1.0 + 3 * 0.05);
  }
}

TEST(ComparatorModelTest, BasicThreshold) {
  ComparatorParams p;
  p.delay_s = 0.0;
  p.hysteresis_v = 0.0;
  ComparatorModel cmp(p);
  EXPECT_DOUBLE_EQ(cmp.step(1.0, 0.5, 1e-6), p.v_high);
  EXPECT_DOUBLE_EQ(cmp.step(0.4, 0.5, 1e-6), p.v_low);
}

TEST(ComparatorModelTest, HysteresisHoldsState) {
  ComparatorParams p;
  p.delay_s = 0.0;
  p.hysteresis_v = 0.2;
  ComparatorModel cmp(p);
  cmp.reset(false);
  // Needs +0.1 V to switch high.
  cmp.step(0.05, 0.0, 1e-6);
  EXPECT_FALSE(cmp.output_high());
  cmp.step(0.15, 0.0, 1e-6);
  EXPECT_TRUE(cmp.output_high());
  // Small reversals inside the hysteresis band don't flip it back.
  cmp.step(-0.05, 0.0, 1e-6);
  EXPECT_TRUE(cmp.output_high());
  cmp.step(-0.15, 0.0, 1e-6);
  EXPECT_FALSE(cmp.output_high());
}

TEST(ComparatorModelTest, PropagationDelay) {
  ComparatorParams p;
  p.delay_s = 5e-6;
  p.hysteresis_v = 0.0;
  ComparatorModel cmp(p);
  cmp.reset(false);
  const double dt = 1e-6;
  int steps_to_flip = 0;
  for (int i = 0; i < 100 && !cmp.output_high(); ++i) {
    cmp.step(1.0, 0.0, dt);
    ++steps_to_flip;
  }
  // ~delay/dt steps (first step arms the timer).
  EXPECT_GE(steps_to_flip, 5);
  EXPECT_LE(steps_to_flip, 8);
}

TEST(ComparatorModelTest, GlitchShorterThanDelayIgnored) {
  ComparatorParams p;
  p.delay_s = 5e-6;
  ComparatorModel cmp(p);
  cmp.reset(false);
  cmp.step(1.0, 0.0, 1e-6);  // arm
  cmp.step(1.0, 0.0, 1e-6);
  cmp.step(-1.0, 0.0, 1e-6);  // input returns low before delay elapses
  for (int i = 0; i < 3; ++i) cmp.step(-1.0, 0.0, 1e-6);
  EXPECT_FALSE(cmp.output_high());
}

// The hysteresis comparison is shared with the dual-slope kernel's
// vector lanes, so its unordered case is pinned here: a NaN input never
// clears the threshold, and the output falls low whatever its state.
TEST(ComparatorModelTest, NaNInputReadsLow) {
  ComparatorParams p;
  p.delay_s = 0.0;
  p.hysteresis_v = 0.2;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool high : {false, true}) {
    ComparatorModel cmp(p);
    cmp.reset(high);
    EXPECT_DOUBLE_EQ(cmp.step(nan, 0.0, 1e-6), p.v_low) << high;
    cmp.reset(high);
    EXPECT_DOUBLE_EQ(cmp.step(0.0, nan, 1e-6), p.v_low) << high;
  }
}

TEST(ScIntegratorModelTest, MatchesDesignEquation) {
  // Ideal model must track H(z) = z^-1/(k (1-z^-1)) driven step-wise.
  ScIntegratorParams p;
  p.cap_ratio = 6.8;
  p.vout_min = -100.0;
  p.vout_max = 100.0;
  ScIntegratorModel integ(p);
  double expect = 0.0;
  for (int n = 0; n < 40; ++n) {
    const double v = integ.update(1.0);
    expect += 1.0 / 6.8;
    EXPECT_NEAR(v, expect, 1e-12);
  }
}

TEST(ScIntegratorModelTest, InvertFlipsDirection) {
  ScIntegratorParams p;
  p.vout_min = -10.0;
  p.vout_max = 10.0;
  ScIntegratorModel integ(p);
  integ.update(1.0);
  const double up = integ.output();
  integ.update(1.0, /*invert=*/true);
  EXPECT_NEAR(integ.output(), up - 1.0 / p.cap_ratio, 1e-12);
}

TEST(ScIntegratorModelTest, LeakDecaysOutput) {
  ScIntegratorParams p;
  p.leak = 0.01;
  p.vout_min = -10.0;
  p.vout_max = 10.0;
  ScIntegratorModel integ(p);
  integ.reset(1.0);
  for (int i = 0; i < 10; ++i) integ.update(0.0);
  EXPECT_NEAR(integ.output(), std::pow(0.99, 10), 1e-12);
}

TEST(ScIntegratorModelTest, SaturationClamps) {
  ScIntegratorParams p;  // 0..5 V rails
  ScIntegratorModel integ(p);
  for (int i = 0; i < 100; ++i) integ.update(5.0);
  EXPECT_DOUBLE_EQ(integ.output(), p.vout_max);
}

// next_output writes its clamp with ?: so that the dual-slope kernel's
// vector lanes share it; it must stay std::clamp bit for bit, NaN
// (passed through), infinities and signed zeros included.
TEST(ScIntegratorModelTest, ClampIsStdClampBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [lo, hi] :
       {std::pair{0.0, 5.0}, std::pair{-0.0, 1.0}, std::pair{-1.0, 0.0}}) {
    ScIntegratorParams p;
    p.vout_min = lo;
    p.vout_max = hi;
    // From a -0 output, with a -0 offset and no leak or nonlinearity, the
    // unclamped cycle value is the step itself, signed zeros included.
    p.offset_per_cycle = -0.0;
    for (const double next : {-inf, -2.0, -0.0, 0.0, 0.5, 1.0, 5.0, 7.0, inf, nan}) {
      const double got =
          ScIntegratorModel::next_output(p, next, 1.0, /*invert=*/false, -0.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(std::clamp(next, lo, hi)))
          << next << " in [" << lo << ", " << hi << "]";
    }
  }
}

TEST(ScIntegratorModelTest, NonlinearityBendsRamp) {
  ScIntegratorParams lin;
  lin.vout_max = 100.0;
  ScIntegratorParams nl = lin;
  nl.nonlinearity = 1e-2;
  ScIntegratorModel a(lin), b(nl);
  for (int i = 0; i < 50; ++i) {
    a.update(1.0);
    b.update(1.0);
  }
  EXPECT_GT(b.output(), a.output());  // positive coefficient grows faster
}

// --- Transistor-level OP1 (Figure 3) ---

TEST(Op1Test, OperatingPointIsSane) {
  circuit::Netlist n;
  const Op1Nodes nodes = build_op1(n);
  // Tie both inputs to mid-rail.
  n.add<circuit::VoltageSource>(n.find_node(nodes.in_plus), circuit::kGround, 2.5);
  n.add<circuit::VoltageSource>(n.find_node(nodes.in_minus), circuit::kGround, 2.5);
  const circuit::DcResult op = circuit::dc_operating_point(n);
  // Bias line must sit a threshold-ish below VDD; tail below VDD.
  EXPECT_GT(op.voltage(nodes.bias_p), 2.0);
  EXPECT_LT(op.voltage(nodes.bias_p), 4.6);
  EXPECT_GT(op.voltage(nodes.bias_n), 0.4);
  EXPECT_LT(op.voltage(nodes.bias_n), 2.5);
  // All internal nodes within the rails.
  for (int k = 3; k <= 9; ++k) {
    const double v = op.voltage(nodes.numbered(k));
    EXPECT_GE(v, -0.01) << "node " << k;
    EXPECT_LE(v, 5.01) << "node " << k;
  }
}

TEST(Op1Test, OutputRespondsToDifferentialInput) {
  // Drive a large differential input both ways: output must swing.
  auto out_for = [](double vplus) {
    circuit::Netlist n;
    const Op1Nodes nodes = build_op1(n);
    n.add<circuit::VoltageSource>(n.find_node(nodes.in_plus), circuit::kGround, vplus);
    n.add<circuit::VoltageSource>(n.find_node(nodes.in_minus), circuit::kGround, 2.5);
    return circuit::dc_operating_point(n).voltage(nodes.out);
  };
  const double hi = out_for(3.0);
  const double lo = out_for(2.0);
  EXPECT_GT(hi, 4.0);  // In+ well above In- -> output high
  EXPECT_LT(lo, 1.0);  // In+ well below In- -> output low
}

TEST(Op1Test, UnityFollowerTracksInput) {
  // Close the loop: out -> In-. A working op-amp follows In+.
  for (double target : {1.5, 2.5, 3.5}) {
    circuit::Netlist n;
    const Op1Nodes nodes = build_op1(n);
    n.add<circuit::VoltageSource>(n.find_node(nodes.in_plus), circuit::kGround, target);
    // Feedback wire: ideal 1-ohm connection from out to In-.
    n.add<circuit::Resistor>(n.find_node(nodes.out), n.find_node(nodes.in_minus), 1.0);
    n.add<circuit::Resistor>(n.find_node(nodes.in_minus), circuit::kGround, 1e9);
    const circuit::DcResult op = circuit::dc_operating_point(n);
    EXPECT_NEAR(op.voltage(nodes.out), target, 0.15) << "target=" << target;
  }
}

TEST(Op1Test, TransistorCountMatchesPaper) {
  circuit::Netlist n;
  build_op1(n);
  int mos = 0;
  for (const auto& el : n.elements()) {
    if (dynamic_cast<const circuit::Mosfet*>(el.get()) != nullptr) ++mos;
  }
  EXPECT_EQ(mos, kOp1TransistorCount);
}

TEST(Op1Test, PrefixIsolatesInstances) {
  circuit::Netlist n;
  Op1Options a, b;
  a.prefix = "u1_";
  b.prefix = "u2_";
  const Op1Nodes na = build_op1(n, a);
  const Op1Nodes nb = build_op1(n, b);
  EXPECT_NE(na.out, nb.out);
  EXPECT_NE(n.find_node(na.out), n.find_node(nb.out));
}

}  // namespace
}  // namespace msbist::analog
