// On-chip ramp generator macro.
//
// "The ramp signal generator varied from 0 to 2.5 volts over a 1 Sec
// period, allowing time for 6 measurements at 200 mSec intervals."
// The paper's caveat is central: "If there was a gain error in the ADC,
// which was compensated by a gain error in the ramp input, there will be
// no indication of an error at the output" — both macros derive from the
// same on-chip reference, so a reference error scales both. gain_error
// here models that shared reference error.
#pragma once

#include <vector>

#include "analog/macro.h"

namespace msbist::bist {

class RampGenerator {
 public:
  /// full_scale is reached at ramp_time seconds; gain_error scales the
  /// whole ramp (shared-reference error).
  RampGenerator(double full_scale, double ramp_time, double gain_error,
                analog::ProcessVariation& pv);

  /// The paper's macro: 0 -> 2.5 V over 1 s, no gain error, typical die.
  static RampGenerator typical();

  /// Ramp voltage at time t (clamped to [0, actual full scale]).
  double value(double t) const;

  double ramp_time() const { return ramp_time_; }
  double actual_full_scale() const { return actual_full_scale_; }

  /// The 6 measurement instants of the paper: 0, 0.2, ... 1.0 s spans 6
  /// samples at 200 ms intervals starting at the first interval.
  std::vector<double> measurement_times(std::size_t count = 6,
                                        double interval = 0.2) const;

  /// Part of the analogue overhead (current source + cap + buffer).
  static constexpr int kTransistorCount = 30;

 private:
  double full_scale_;
  double ramp_time_;
  double actual_full_scale_;
};

}  // namespace msbist::bist
