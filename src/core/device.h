// A fabricated die: the ADC macro plus its on-chip test macros, with
// per-die process variation.
//
// The paper fabricated "a batch of 10 devices ... comprising the built-in
// self test macros described and the ADC system. All devices passed the
// analogue, digital and compressed tests." Device is one such die; the
// fabrication run is production::paper_population() under
// production::run_batch. Every die is fully determined by its seed.
#pragma once

#include <cstdint>

#include "adc/dual_slope.h"
#include "adc/metrics.h"
#include "bist/controller.h"

namespace msbist::core {

class Device {
 public:
  /// Build a die from the base (design-intent) ADC configuration with
  /// process variation drawn from die_seed. Seed 0 is reserved for the
  /// no-variation "typical" die.
  Device(std::uint64_t die_seed, const adc::DualSlopeAdcConfig& base_config);

  /// The paper's characterized design on die `seed`.
  static Device fabricate(std::uint64_t die_seed);

  std::uint64_t seed() const { return seed_; }
  adc::DualSlopeAdc& adc() { return adc_; }
  const bist::BistController& bist() const { return bist_; }

  /// Run the full on-chip BIST flow (analogue, ramp, digital, compressed).
  bist::BistReport run_bist();

  /// Bench-style full characterization over the paper's 0..100 input-code
  /// span (external-instrument model: fine single-shot ramp).
  adc::AdcMetrics characterize();

 private:
  std::uint64_t seed_;
  adc::DualSlopeAdc adc_;
  bist::BistController bist_;
};

}  // namespace msbist::core
