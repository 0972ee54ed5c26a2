// Unit tests for the on-chip BIST macros and controller.
#include <gtest/gtest.h>

#include <cmath>

#include "adc/dual_slope.h"
#include "bist/controller.h"
#include "bist/level_sensor.h"
#include "bist/overhead.h"
#include "bist/ramp_generator.h"
#include "bist/signature_compressor.h"
#include "bist/step_generator.h"

namespace msbist::bist {
namespace {

TEST(StepGen, PaperLevels) {
  const auto levels = paper_step_levels();
  ASSERT_EQ(levels.size(), 6u);
  EXPECT_DOUBLE_EQ(levels[0], 0.0);
  EXPECT_DOUBLE_EQ(levels[1], 0.59);
  EXPECT_DOUBLE_EQ(levels[5], 2.5);
}

TEST(StepGen, TypicalIsExact) {
  const StepGenerator gen = StepGenerator::typical();
  EXPECT_EQ(gen.tap_count(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(gen.level(i), paper_step_levels()[i]);
  }
}

TEST(StepGen, GainErrorScalesAllTaps) {
  analog::ProcessVariation pv = analog::ProcessVariation::nominal();
  const StepGenerator gen(paper_step_levels(), 0.02, pv);
  EXPECT_NEAR(gen.level(5), 2.5 * 1.02, 1e-12);
  EXPECT_NEAR(gen.level(1), 0.59 * 1.02, 1e-12);
}

TEST(StepGen, VariationStaysTight) {
  analog::ProcessVariation pv(3);
  const StepGenerator gen(paper_step_levels(), 0.0, pv);
  for (std::size_t i = 1; i < gen.tap_count(); ++i) {
    EXPECT_NEAR(gen.level(i), paper_step_levels()[i],
                paper_step_levels()[i] * 0.006 + 1e-12);
  }
}

TEST(StepGen, InvalidArgsThrow) {
  analog::ProcessVariation pv = analog::ProcessVariation::nominal();
  EXPECT_THROW(StepGenerator({}, 0.0, pv), std::invalid_argument);
  EXPECT_THROW(StepGenerator::typical().level(6), std::out_of_range);
}

TEST(RampGen, PaperTiming) {
  const RampGenerator ramp = RampGenerator::typical();
  EXPECT_DOUBLE_EQ(ramp.value(0.0), 0.0);
  EXPECT_NEAR(ramp.value(0.5), 1.25, 1e-9);
  EXPECT_NEAR(ramp.value(1.0), 2.5, 1e-9);
  EXPECT_NEAR(ramp.value(2.0), 2.5, 1e-9);  // clamped
}

TEST(RampGen, SixMeasurementsAt200ms) {
  const RampGenerator ramp = RampGenerator::typical();
  const auto times = ramp.measurement_times();
  ASSERT_EQ(times.size(), 6u);
  EXPECT_NEAR(times.front(), 0.2, 1e-12);
  EXPECT_NEAR(times.back(), 1.2, 1e-12);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_NEAR(times[i] - times[i - 1], 0.2, 1e-12);
  }
}

TEST(RampGen, GainErrorScalesSlope) {
  analog::ProcessVariation pv = analog::ProcessVariation::nominal();
  const RampGenerator ramp(2.5, 1.0, -0.04, pv);
  EXPECT_NEAR(ramp.value(1.0), 2.5 * 0.96, 1e-9);
}

TEST(LevelSensor, PaperThresholdCodes) {
  const DcLevelSensor sensor = DcLevelSensor::typical();
  EXPECT_EQ(sensor.classify(1.0), 0b00);
  EXPECT_EQ(sensor.classify(2.5), 0b01);
  EXPECT_EQ(sensor.classify(3.3), 0b01);  // the healthy integrator peak
  EXPECT_EQ(sensor.classify(4.0), 0b11);
}

TEST(LevelSensor, OrderedThresholdsRequired) {
  analog::ProcessVariation pv = analog::ProcessVariation::nominal();
  EXPECT_THROW(DcLevelSensor(3.6, 1.9, pv), std::invalid_argument);
}

TEST(Compressor, GoldenMatchesAllInTolerance) {
  const ToleranceCompressor comp({260, 201, 164, 119, 80, 10}, 4);
  EXPECT_EQ(comp.signature({260, 201, 164, 119, 80, 10}), comp.golden_signature());
  // Small deviations stay in tolerance.
  EXPECT_EQ(comp.signature({258, 203, 166, 117, 82, 12}), comp.golden_signature());
}

TEST(Compressor, OutOfToleranceBreaksSignature) {
  const ToleranceCompressor comp({260, 201, 164, 119, 80, 10}, 4);
  EXPECT_NE(comp.signature({260, 201, 164, 119, 80, 30}), comp.golden_signature());
  EXPECT_NE(comp.signature({0, 201, 164, 119, 80, 10}), comp.golden_signature());
}

TEST(Compressor, BucketBoundaries) {
  const ToleranceCompressor comp({100}, 5);
  EXPECT_EQ(comp.bucket(0, 94), 0u);
  EXPECT_EQ(comp.bucket(0, 95), 1u);
  EXPECT_EQ(comp.bucket(0, 105), 1u);
  EXPECT_EQ(comp.bucket(0, 106), 2u);
}

TEST(Compressor, Validation) {
  EXPECT_THROW(ToleranceCompressor({}, 4), std::invalid_argument);
  const ToleranceCompressor comp({1, 2}, 1);
  EXPECT_THROW(comp.signature({1}), std::invalid_argument);
  EXPECT_THROW(comp.bucket(2, 0), std::out_of_range);
}

TEST(Controller, HealthyDevicePassesAllTiers) {
  BistController ctrl = BistController::typical();
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::characterized());
  const BistReport rep = ctrl.run_all(adc);
  EXPECT_TRUE(rep.analog.pass);
  EXPECT_TRUE(rep.ramp.pass);
  EXPECT_TRUE(rep.digital.pass);
  EXPECT_TRUE(rep.compressed.pass);
  EXPECT_TRUE(rep.pass);
}

TEST(Controller, AnalogTestMatchesPaperFallTimes) {
  BistController ctrl = BistController::typical();
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::ideal());
  BistReport rep;
  ctrl.run_tier(Tier::kAnalog, adc, rep);
  const AnalogTestResult& res = rep.analog;
  ASSERT_EQ(res.fall_times_s.size(), 6u);
  // The paper's fall-time law: 2.6 ms down to 0.1 ms.
  EXPECT_NEAR(res.fall_times_s.front(), 2.6e-3, 30e-6);
  EXPECT_NEAR(res.fall_times_s.back(), 0.1e-3, 30e-6);
  EXPECT_TRUE(res.pass);
}

TEST(Controller, RampTestCodesDecrease) {
  BistController ctrl = BistController::typical();
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::ideal());
  BistReport rep;
  ctrl.run_tier(Tier::kRamp, adc, rep);
  const RampTestResult& res = rep.ramp;
  EXPECT_TRUE(res.codes_monotonic);
  EXPECT_TRUE(res.pass);
  EXPECT_GT(res.codes.front(), res.codes.back());
}

TEST(Controller, MatchedGainErrorsMask) {
  // The paper's caveat: an ADC gain error compensated by the same gain
  // error in the on-chip ramp is invisible to the ramp test.
  analog::ProcessVariation pv = analog::ProcessVariation::nominal();
  const double shared_gain_error = 0.03;
  adc::DualSlopeAdcConfig cfg = adc::DualSlopeAdcConfig::ideal();
  // An ADC whose reference runs 3 % high reads codes 3 % low...
  cfg.vref = 2.5 * (1.0 + shared_gain_error);
  adc::DualSlopeAdc skewed(cfg);
  // ...but the on-chip ramp from the same reference also runs 3 % high.
  BistController matched(StepGenerator(paper_step_levels(), shared_gain_error, pv),
                         RampGenerator(2.5, 1.0, shared_gain_error, pv),
                         DcLevelSensor::typical());
  BistReport masked_rep;
  matched.run_tier(Tier::kRamp, skewed, masked_rep);
  const RampTestResult& masked = masked_rep.ramp;
  EXPECT_TRUE(masked.pass);  // no indication of error at the output
  // An external (accurate) ramp would reveal it: codes shift visibly.
  BistController honest = BistController::typical();
  BistReport revealed_rep;
  honest.run_tier(Tier::kRamp, skewed, revealed_rep);
  const RampTestResult& revealed = revealed_rep.ramp;
  adc::DualSlopeAdc good(adc::DualSlopeAdcConfig::ideal());
  BistReport baseline_rep;
  honest.run_tier(Tier::kRamp, good, baseline_rep);
  const RampTestResult& baseline = baseline_rep.ramp;
  ASSERT_EQ(revealed.codes.size(), baseline.codes.size());
  int shifted = 0;
  for (std::size_t i = 0; i < revealed.codes.size(); ++i) {
    if (revealed.codes[i] != baseline.codes[i]) ++shifted;
  }
  EXPECT_GT(shifted, 3);
}

TEST(Controller, DigitalTestWithinSpec) {
  BistController ctrl = BistController::typical();
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::ideal());
  BistReport rep;
  ctrl.run_tier(Tier::kDigital, adc, rep);
  const DigitalTestResult& res = rep.digital;
  EXPECT_LE(res.max_conversion_time_s, 5.6e-3);
  EXPECT_NEAR(res.fall_time_per_code_s, 10e-6, 2e-6);
  EXPECT_NEAR(res.volts_per_code, 0.01, 1e-12);
  EXPECT_TRUE(res.pass);
}

TEST(Controller, StuckControlFailsBist) {
  BistController ctrl = BistController::typical();
  adc::DualSlopeAdcConfig cfg = adc::DualSlopeAdcConfig::characterized();
  cfg.control_faults.stuck_phase = digital::ConvPhase::kDeintegrate;
  adc::DualSlopeAdc adc(cfg);
  const BistReport rep = ctrl.run_all(adc);
  EXPECT_FALSE(rep.pass);
}

TEST(Controller, CounterFaultCaughtByCompressedTest) {
  BistController ctrl = BistController::typical();
  adc::DualSlopeAdcConfig cfg = adc::DualSlopeAdcConfig::characterized();
  cfg.counter_faults.stuck_bit = 5;
  adc::DualSlopeAdc adc(cfg);
  EXPECT_FALSE(ctrl.run_tier(Tier::kCompressed, adc).pass);
}

TEST(Controller, LargeComparatorOffsetCaught) {
  BistController ctrl = BistController::typical();
  adc::DualSlopeAdcConfig cfg = adc::DualSlopeAdcConfig::characterized();
  cfg.comparator.offset_v = 0.12;  // 12 LSB offset
  adc::DualSlopeAdc adc(cfg);
  const BistReport rep = ctrl.run_all(adc);
  EXPECT_FALSE(rep.pass);
}

TEST(Overhead, PaperTotals) {
  const OverheadModel m = OverheadModel::paper();
  EXPECT_EQ(m.analogue_total(), 152);
  EXPECT_EQ(m.digital_total(), 484);
  EXPECT_EQ(m.total(), 636);
  EXPECT_NEAR(m.overhead_ratio_vs_adc(), 0.636, 1e-9);
  EXPECT_NEAR(m.device_fraction(), 636.0 / 5000.0, 1e-9);
}

}  // namespace
}  // namespace msbist::bist
