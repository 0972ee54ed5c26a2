// First-order sigma-delta modulator.
//
// The paper's "Conclusions and Future Developments" points the work at
// "larger full-custom ADC devices designed with sigma-delta modulation
// architecture, where the switched capacitor integrator forms a major
// part of the circuit". This module provides that architecture on top of
// the same ScIntegratorModel/ComparatorModel sub-macros, so the BIST
// techniques can be exercised against it (bench A4).
#pragma once

#include <cstdint>
#include <vector>

#include "analog/comparator.h"
#include "analog/macro.h"
#include "analog/sc_integrator.h"

namespace msbist::adc {

struct SigmaDeltaConfig {
  double vref = 2.5;            ///< feedback DAC levels are +/- vref
  double clock_hz = 1e6;        ///< modulator (oversampling) clock
  std::uint32_t osr = 256;      ///< oversampling ratio / decimation length
  analog::ScIntegratorParams integrator;
  analog::ComparatorParams comparator;

  static SigmaDeltaConfig typical();
};

/// First-order single-bit sigma-delta modulator with a counting
/// (sinc^1) decimator.
class SigmaDeltaAdc {
 public:
  explicit SigmaDeltaAdc(SigmaDeltaConfig cfg);

  /// One decimated conversion: runs OSR modulator cycles on a DC input
  /// and returns the number of 1s (code in [0, OSR]).
  std::uint32_t convert(double vin);

  /// The raw bitstream for one conversion (for BIST signature tests).
  std::vector<int> bitstream(double vin);

  /// Ideal code: round(OSR * (vin + vref) / (2 vref)).
  std::uint32_t ideal_code(double vin) const;

  const SigmaDeltaConfig& config() const { return cfg_; }

 private:
  SigmaDeltaConfig cfg_;
};

}  // namespace msbist::adc
