#include "core/device.h"

#include <cstdint>
#include <vector>

namespace msbist::core {

namespace {

adc::DualSlopeAdcConfig make_die_config(std::uint64_t die_seed,
                                        const adc::DualSlopeAdcConfig& base) {
  if (die_seed == 0) return base;
  analog::ProcessVariation pv(die_seed);
  adc::DualSlopeAdcConfig cfg = base.varied(pv);
  // Each die sees its own conversion-noise stream.
  cfg.noise_seed = base.noise_seed ^ (die_seed * 0x9E3779B97F4A7C15ull);
  return cfg;
}

bist::BistController make_die_bist(std::uint64_t die_seed) {
  if (die_seed == 0) return bist::BistController::typical();
  // The test macros sit on the same die: they share the fabrication lot
  // but have their own local variation draws.
  analog::ProcessVariation pv(die_seed ^ 0xB15Dull);
  bist::StepGenerator steps(bist::paper_step_levels(), 0.0, pv);
  bist::RampGenerator ramp(2.5, 1.0, 0.0, pv);
  bist::DcLevelSensor sensor(1.9, 3.6, pv);
  return bist::BistController(std::move(steps), std::move(ramp), std::move(sensor));
}

}  // namespace

Device::Device(std::uint64_t die_seed, const adc::DualSlopeAdcConfig& base_config)
    : seed_(die_seed), adc_(make_die_config(die_seed, base_config)),
      bist_(make_die_bist(die_seed)) {}

Device Device::fabricate(std::uint64_t die_seed) {
  return Device(die_seed, adc::DualSlopeAdcConfig::characterized());
}

bist::BistReport Device::run_bist() { return bist_.run_all(adc_); }

adc::AdcMetrics Device::characterize() {
  const double lsb = adc_.lsb_volts();
  // One single-shot conversion per sweep point, all in one batch.
  const std::vector<double> volts = adc::ramp_sweep_points(-0.008, 1.012, 0.001);
  std::vector<adc::ConversionResult> conv(volts.size());
  adc_.convert_n(volts.data(), volts.size(), conv.data());
  // Ascending "input code equivalent" axis of the paper's Figure 2. Signed:
  // a faulty die's codes can exceed full + 40 (latch bits stuck high), and
  // its axis must then go negative, not wrap to ~2^32 codes to sweep.
  const auto full = static_cast<std::int64_t>(adc_.full_scale_code());
  std::vector<double> axis(conv.size());
  for (std::size_t i = 0; i < conv.size(); ++i) {
    axis[i] = static_cast<double>(full + 40 - static_cast<std::int64_t>(conv[i].code));
  }
  const adc::TransitionLevels tl = adc::transitions_from_sweep(volts, axis);
  const double ideal_first =
      (static_cast<double>(tl.base_code) - 40.0 + 0.5) * lsb;
  return adc::compute_metrics(tl, lsb, ideal_first);
}

}  // namespace msbist::core
