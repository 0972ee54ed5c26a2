// Unit tests for the dual-slope ADC macro and specification metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "adc/dual_slope.h"
#include "adc/metrics.h"
#include "adc/sigma_delta.h"
#include "analog/macro.h"

namespace msbist::adc {
namespace {

TEST(DualSlope, LsbIsTenMillivolts) {
  DualSlopeAdc adc(DualSlopeAdcConfig::ideal());
  EXPECT_NEAR(adc.lsb_volts(), 0.01, 1e-12);
}

TEST(DualSlope, FallTimeMatchesPaperStepTable) {
  // Paper: steps 0, 0.59, 0.96, 1.41, 1.8, 2.5 V give fall times
  // 2.6, 2.2, 1.9, 1.2, 0.8, 0.1 ms. Our model implements the linear law
  // T2 = (Vref - Vin) * 1 ms/V + 0.1 ms that those measurements scatter
  // around; assert the law, not the scatter.
  DualSlopeAdc adc(DualSlopeAdcConfig::ideal());
  const double steps[] = {0.0, 0.59, 0.96, 1.41, 1.8, 2.5};
  for (double v : steps) {
    const ConversionResult r = adc.convert(v);
    const double expected = (2.5 - v) * 1e-3 + 0.1e-3;
    EXPECT_NEAR(r.fall_time_s, expected, 25e-6) << "vin=" << v;
  }
}

TEST(DualSlope, ConversionTimeWithinSpec) {
  // Spec: conversion time max 5.6 ms at 100 kHz.
  DualSlopeAdc adc(DualSlopeAdcConfig::ideal());
  for (double v = 0.0; v <= 2.5; v += 0.25) {
    const ConversionResult r = adc.convert(v);
    EXPECT_TRUE(r.completed);
    EXPECT_LT(r.conversion_time_s, 5.6e-3) << "vin=" << v;
  }
}

TEST(DualSlope, TenMillivoltsPerCode) {
  // Paper: "10 mV input for each incremented output code change" and
  // 10 us fall-time difference per code.
  DualSlopeAdc adc(DualSlopeAdcConfig::ideal());
  const ConversionResult a = adc.convert(1.00);
  const ConversionResult b = adc.convert(1.01);
  EXPECT_EQ(a.code, b.code + 1);
  EXPECT_NEAR(a.fall_time_s - b.fall_time_s, 10e-6, 1e-9);
}

TEST(DualSlope, CodeDecreasesWithInput) {
  DualSlopeAdc adc(DualSlopeAdcConfig::ideal());
  EXPECT_EQ(adc.code_for(0.0), adc.full_scale_code());
  EXPECT_GT(adc.code_for(0.5), adc.code_for(1.5));
  EXPECT_EQ(adc.code_for(2.5), adc.pedestal_counts());
}

TEST(DualSlope, IdealCodeMatchesConversion) {
  DualSlopeAdc adc(DualSlopeAdcConfig::ideal());
  for (double v = 0.0; v <= 2.5; v += 0.173) {
    EXPECT_NEAR(static_cast<double>(adc.code_for(v)),
                static_cast<double>(adc.ideal_code(v)), 1.0)
        << "vin=" << v;
  }
}

TEST(DualSlope, IntegratorPeakTracksInput) {
  // Peak = baseline + pedestal + (Vref - Vin); feeds the BIST level sensor.
  DualSlopeAdc adc(DualSlopeAdcConfig::ideal());
  EXPECT_NEAR(adc.convert(0.0).integrator_peak_v, 0.7 + 0.1 + 2.5, 0.02);
  EXPECT_NEAR(adc.convert(1.5).integrator_peak_v, 0.7 + 0.1 + 1.0, 0.02);
  EXPECT_NEAR(adc.convert(2.5).integrator_peak_v, 0.8, 0.02);
}

TEST(DualSlope, StuckControlNeverCompletes) {
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::ideal();
  cfg.control_faults.stuck_phase = digital::ConvPhase::kIntegrate;
  DualSlopeAdc adc(cfg);
  const ConversionResult r = adc.convert(1.0);
  EXPECT_FALSE(r.completed);
}

TEST(DualSlope, CounterStuckBitCorruptsCodes) {
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::ideal();
  cfg.counter_faults.stuck_bit = 3;
  DualSlopeAdc good(DualSlopeAdcConfig::ideal());
  DualSlopeAdc bad(cfg);
  int mismatches = 0;
  for (double v = 0.1; v < 2.5; v += 0.2) {
    if (good.code_for(v) != bad.code_for(v)) ++mismatches;
  }
  EXPECT_GT(mismatches, 5);
}

TEST(DualSlope, LatchStuckBitsGiveMultipleWrongCodes) {
  // Paper: "faults in the output latch submacro will manifest as multiple
  // incorrect output codes".
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::ideal();
  cfg.latch_faults.stuck_high_mask = 0x10;
  DualSlopeAdc good(DualSlopeAdcConfig::ideal());
  DualSlopeAdc bad(cfg);
  int wrong = 0;
  for (double v = 0.05; v < 2.5; v += 0.1) {
    if (good.code_for(v) != bad.code_for(v)) ++wrong;
  }
  EXPECT_GT(wrong, 8);
}

TEST(DualSlope, ComparatorOffsetShiftsAllCodes) {
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::ideal();
  cfg.comparator.offset_v = 0.05;  // 5 LSB worth of threshold shift
  DualSlopeAdc good(DualSlopeAdcConfig::ideal());
  DualSlopeAdc bad(cfg);
  // Offset moves the trip point; every code shifts by ~the same amount.
  const int d1 = static_cast<int>(bad.code_for(0.5)) - static_cast<int>(good.code_for(0.5));
  const int d2 = static_cast<int>(bad.code_for(2.0)) - static_cast<int>(good.code_for(2.0));
  EXPECT_NE(d1, 0);
  EXPECT_NEAR(d1, d2, 1.0);
}

TEST(DualSlope, SymmetricNonlinearityCancels) {
  // Dual-slope rejects integrator (output-referred) nonlinearity to first
  // order: both slopes traverse the same voltage span.
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::ideal();
  cfg.integrator.nonlinearity = 1e-2;
  DualSlopeAdc ideal(DualSlopeAdcConfig::ideal());
  DualSlopeAdc bent(cfg);
  for (double v = 0.2; v <= 2.4; v += 0.4) {
    EXPECT_NEAR(static_cast<double>(bent.code_for(v)),
                static_cast<double>(ideal.code_for(v)), 1.0)
        << "vin=" << v;
  }
}

TEST(DualSlope, SymmetricRatioErrorCancels) {
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::ideal();
  cfg.integrator.ratio_error = 0.02;
  DualSlopeAdc ideal(DualSlopeAdcConfig::ideal());
  DualSlopeAdc skewed(cfg);
  for (double v = 0.2; v <= 2.4; v += 0.4) {
    EXPECT_NEAR(static_cast<double>(skewed.code_for(v)),
                static_cast<double>(ideal.code_for(v)), 1.0);
  }
}

TEST(DualSlope, InvertGainMismatchShowsAsGainError) {
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::ideal();
  cfg.integrator.invert_gain_mismatch = -0.01;  // run-down 1 % slow
  DualSlopeAdc ideal(DualSlopeAdcConfig::ideal());
  DualSlopeAdc skewed(cfg);
  // Slower run-down -> more counts, scaling with the integrated voltage.
  const int lo = static_cast<int>(skewed.code_for(2.3)) - static_cast<int>(ideal.code_for(2.3));
  const int hi = static_cast<int>(skewed.code_for(0.2)) - static_cast<int>(ideal.code_for(0.2));
  EXPECT_GT(hi, lo);  // error grows toward full scale: gain error
}

TEST(DualSlope, NoiseIsSeededAndReproducible) {
  DualSlopeAdcConfig cfg = DualSlopeAdcConfig::characterized();
  DualSlopeAdc a(cfg), b(cfg);
  for (double v = 0.1; v < 1.0; v += 0.0937) {
    EXPECT_EQ(a.code_for(v), b.code_for(v));
  }
}

// --- Metrics ---

// Ascending ideal quantizer for metric tests: code = floor(v / lsb).
AdcTransferFn ideal_quantizer(double lsb) {
  return [lsb](double v) {
    return static_cast<std::uint32_t>(std::max(0.0, std::floor(v / lsb)));
  };
}

TEST(Metrics, IdealQuantizerHasZeroErrors) {
  const double lsb = 0.01;
  const auto tl = measure_transitions_ramp(ideal_quantizer(lsb), 0.001, 0.301,
                                           lsb / 50.0);
  ASSERT_GE(tl.transitions.size(), 25u);
  // First measured transition is base_code -> base_code+1 at (base+1)*lsb.
  const double ideal_first = (static_cast<double>(tl.base_code) + 1.0) * lsb;
  const AdcMetrics m = compute_metrics(tl, lsb, ideal_first);
  EXPECT_NEAR(m.offset_lsb, 0.0, 0.05);
  EXPECT_NEAR(m.gain_error_lsb, 0.0, 0.1);
  EXPECT_LT(m.max_abs_dnl, 0.05);
  EXPECT_LT(m.max_abs_inl, 0.05);
}

TEST(Metrics, DetectsPureOffset) {
  const double lsb = 0.01, offset = 0.025;
  AdcTransferFn adc = [=](double v) {
    return static_cast<std::uint32_t>(std::max(0.0, std::floor((v - offset) / lsb)));
  };
  const auto tl = measure_transitions_ramp(adc, 0.03, 0.3, lsb / 50.0);
  const double ideal_first = (static_cast<double>(tl.base_code) + 1.0) * lsb;
  const AdcMetrics m = compute_metrics(tl, lsb, ideal_first);
  EXPECT_NEAR(m.offset_lsb, offset / lsb, 0.1);
  EXPECT_LT(m.max_abs_dnl, 0.05);
}

TEST(Metrics, DetectsPureGainError) {
  const double lsb = 0.01;
  const double gain = 1.02;  // codes come 2 % fast
  AdcTransferFn adc = [=](double v) {
    return static_cast<std::uint32_t>(std::max(0.0, std::floor(v * gain / lsb)));
  };
  const auto tl = measure_transitions_ramp(adc, 0.001, 0.5, lsb / 50.0);
  const double ideal_first = (static_cast<double>(tl.base_code) + 1.0) * lsb / gain;
  const AdcMetrics m = compute_metrics(tl, lsb, ideal_first);
  const double span = static_cast<double>(tl.transitions.size() - 1);
  EXPECT_NEAR(m.gain_error_lsb, span * (1.0 / gain - 1.0), 0.25);
  EXPECT_LT(m.max_abs_dnl, 0.05);  // gain error is not DNL
}

TEST(Metrics, MissingCodeShowsMinusOneDnl) {
  const double lsb = 0.01;
  AdcTransferFn adc = [=](double v) {
    auto c = static_cast<std::uint32_t>(std::max(0.0, std::floor(v / lsb)));
    if (c >= 10) ++c;  // code 10 never appears
    return c;
  };
  const auto tl = measure_transitions_ramp(adc, 0.001, 0.3, lsb / 50.0);
  const double ideal_first = (static_cast<double>(tl.base_code) + 1.0) * lsb;
  const AdcMetrics m = compute_metrics(tl, lsb, ideal_first);
  double min_dnl = 1e9;
  for (double d : m.dnl_lsb) min_dnl = std::min(min_dnl, d);
  EXPECT_NEAR(min_dnl, -1.0, 0.05);
}

TEST(Metrics, RampIncludesInexactEndpoint) {
  // 0 -> 2.5 V in 0.1 V steps: 25 steps exactly, but 0.1 is inexact in
  // binary, so a naive `v += step_v; while (v <= v_hi)` sweep accumulates
  // past 2.5 and silently drops the final point — losing the transition
  // at 2.5 V. Index-based stepping must keep it.
  const double lsb = 0.5;
  const auto tl = measure_transitions_ramp(ideal_quantizer(lsb), 0.0, 2.5, 0.1);
  // Transitions at 0.5, 1.0, 1.5, 2.0 and 2.5 — the last one exists only
  // if the sweep actually samples v = 2.5.
  ASSERT_EQ(tl.transitions.size(), 5u);
  EXPECT_NEAR(tl.transitions.back(), 2.5, 0.1 + 1e-9);
  EXPECT_TRUE(tl.monotonic);
  EXPECT_TRUE(tl.reverse_transitions.empty());
}

TEST(Metrics, RampEndpointNotOvershot) {
  // A span that is *not* an exact multiple of the step must not be
  // extended past v_hi: floor(0.25 / 0.1) = 2 interior steps only.
  const auto tl = measure_transitions_ramp(ideal_quantizer(0.1), 0.001, 0.251,
                                           0.1);
  // Sweep points 0.001, 0.101, 0.201 — transitions at ~0.1 and ~0.2.
  EXPECT_EQ(tl.transitions.size(), 2u);
}

TEST(Metrics, NonMonotonicTransferIsFlaggedWithReverseTransitions) {
  // Code climbs 0,1,2,3 then rebounds to 2 over [0.32, 0.38) before
  // resuming — the missing-decision-level shape the paper's Figure 2
  // discussion cares about. The upward-only tracker used to deposit the
  // rebound's transitions at wrong voltages; now the downward crossing is
  // recorded explicitly and the sweep is flagged non-monotonic.
  AdcTransferFn adc = [](double v) -> std::uint32_t {
    auto c = static_cast<std::uint32_t>(std::max(0.0, std::floor(v / 0.1)));
    if (v >= 0.32 && v < 0.38) c = 2;
    return c;
  };
  const auto tl = measure_transitions_ramp(adc, 0.001, 0.6, 0.002);
  EXPECT_FALSE(tl.monotonic);
  ASSERT_EQ(tl.reverse_transitions.size(), 1u);
  EXPECT_NEAR(tl.reverse_transitions[0], 0.32, 0.005);
  // `transitions` keeps one entry per half-level (first upward crossing):
  // 0.1, 0.2, 0.3, 0.4, 0.5 — the rebound adds no duplicates.
  ASSERT_EQ(tl.transitions.size(), 5u);
  EXPECT_NEAR(tl.transitions[2], 0.3, 0.005);
  EXPECT_NEAR(tl.transitions[3], 0.4, 0.005);
}

TEST(Metrics, MonotonicSweepKeepsFlagTrue) {
  const auto tl =
      measure_transitions_ramp(ideal_quantizer(0.01), 0.001, 0.301, 0.0002);
  EXPECT_TRUE(tl.monotonic);
  EXPECT_TRUE(tl.reverse_transitions.empty());
}

TEST(Metrics, ValidationThrows) {
  EXPECT_THROW(measure_transitions_ramp(ideal_quantizer(0.01), 1.0, 0.0, 0.001),
               std::invalid_argument);
  EXPECT_THROW(ramp_sweep_points(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(transitions_from_sweep({}, {}), std::invalid_argument);
  EXPECT_THROW(transitions_from_sweep({0.0, 0.1}, {1.0}), std::invalid_argument);
  TransitionLevels t;
  t.transitions = {0.1, 0.2};
  EXPECT_THROW(compute_metrics(t, 0.01, 0.1), std::invalid_argument);
  EXPECT_THROW(compute_metrics(t, -1.0, 0.1), std::invalid_argument);
}

// --- Full specification test (Figure 2 / spec table) ---

TEST(Characterization, MatchesPaperSpecTable) {
  // The paper's characterized macro: gain +/-0.5 LSB, offset < 0.2 LSB,
  // INL max 1.3 LSB, DNL max 1.2 LSB over input codes 0..100.
  DualSlopeAdc adc(DualSlopeAdcConfig::characterized());
  const double lsb = adc.lsb_volts();
  AdcTransferFn xfer = [&](double v) -> std::uint32_t {
    return 300u - adc.code_for(v);
  };
  const auto tl = measure_transitions_ramp(xfer, -0.008, 1.012, 0.001, 1);
  const double ideal_first =
      (static_cast<double>(tl.base_code) - 40.0 + 0.5) * lsb;
  const AdcMetrics m = compute_metrics(tl, lsb, ideal_first);
  EXPECT_LT(std::abs(m.offset_lsb), 0.2 + 0.05);
  EXPECT_LT(std::abs(m.gain_error_lsb), 0.5 + 0.05);
  EXPECT_NEAR(m.max_abs_dnl, 1.2, 0.25);
  EXPECT_NEAR(m.max_abs_inl, 1.3, 0.25);
}

// --- Sigma-delta extension ---

TEST(SigmaDelta, TracksDcInputs) {
  SigmaDeltaAdc adc(SigmaDeltaConfig::typical());
  for (double v : {-2.0, -1.0, 0.0, 0.7, 1.9}) {
    const auto code = adc.convert(v);
    const auto ideal = adc.ideal_code(v);
    EXPECT_NEAR(static_cast<double>(code), static_cast<double>(ideal), 3.0)
        << "vin=" << v;
  }
}

TEST(SigmaDelta, MidScaleBitstreamIsBalanced) {
  SigmaDeltaAdc adc(SigmaDeltaConfig::typical());
  const auto bits = adc.bitstream(0.0);
  int ones = 0;
  for (int b : bits) ones += b;
  EXPECT_NEAR(ones, static_cast<int>(bits.size()) / 2, 3);
}

TEST(SigmaDelta, CodeMonotoneInInput) {
  SigmaDeltaAdc adc(SigmaDeltaConfig::typical());
  std::uint32_t prev = 0;
  for (double v = -2.4; v <= 2.4; v += 0.2) {
    const auto code = adc.convert(v);
    EXPECT_GE(code + 1, prev) << "vin=" << v;  // allow 1-count wiggle
    prev = code;
  }
}

TEST(SigmaDelta, InvalidConfigThrows) {
  SigmaDeltaConfig cfg = SigmaDeltaConfig::typical();
  cfg.osr = 0;
  EXPECT_THROW(SigmaDeltaAdc{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace msbist::adc
