#include "adc/sigma_delta.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msbist::adc {

SigmaDeltaConfig SigmaDeltaConfig::typical() {
  SigmaDeltaConfig cfg;
  cfg.integrator.cap_ratio = 2.0;     // aggressive integrator gain is fine
  cfg.integrator.vout_min = -10.0;    // first-order loop state stays small
  cfg.integrator.vout_max = 10.0;
  cfg.comparator.delay_s = 0.0;
  cfg.comparator.hysteresis_v = 0.0;
  return cfg;
}

SigmaDeltaAdc::SigmaDeltaAdc(SigmaDeltaConfig cfg) : cfg_(cfg) {
  if (cfg_.vref <= 0 || cfg_.osr == 0 || cfg_.clock_hz <= 0) {
    throw std::invalid_argument("SigmaDeltaAdc: invalid configuration");
  }
}

std::vector<int> SigmaDeltaAdc::bitstream(double vin) {
  analog::ScIntegratorModel integ(cfg_.integrator);
  analog::ComparatorModel cmp(cfg_.comparator);
  const double dt = 1.0 / cfg_.clock_hz;
  std::vector<int> bits;
  bits.reserve(cfg_.osr);
  int bit = 0;
  for (std::uint32_t k = 0; k < cfg_.osr; ++k) {
    // Loop: integrate the difference between the input and the 1-bit DAC
    // feedback (+/- vref), quantize against 0.
    const double feedback = bit ? cfg_.vref : -cfg_.vref;
    integ.update(vin - feedback);
    bit = cmp.step(integ.output(), 0.0, dt) > 2.5 ? 1 : 0;
    bits.push_back(bit);
  }
  return bits;
}

std::uint32_t SigmaDeltaAdc::convert(double vin) {
  const auto bits = bitstream(vin);
  std::uint32_t ones = 0;
  for (int b : bits) ones += static_cast<std::uint32_t>(b);
  return ones;
}

std::uint32_t SigmaDeltaAdc::ideal_code(double vin) const {
  const double clamped = std::clamp(vin, -cfg_.vref, cfg_.vref);
  const double frac = (clamped + cfg_.vref) / (2.0 * cfg_.vref);
  return static_cast<std::uint32_t>(
      std::llround(frac * static_cast<double>(cfg_.osr)));
}

}  // namespace msbist::adc
