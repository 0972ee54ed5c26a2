#include "bist/ramp_generator.h"

#include <algorithm>
#include <stdexcept>

namespace msbist::bist {

RampGenerator::RampGenerator(double full_scale, double ramp_time, double gain_error,
                             analog::ProcessVariation& pv)
    : full_scale_(full_scale), ramp_time_(ramp_time) {
  if (full_scale_ <= 0 || ramp_time_ <= 0) {
    throw std::invalid_argument("RampGenerator: full scale and ramp time must be > 0");
  }
  // The slope of an RC/current-source ramp varies a few tenths of a
  // percent die to die on top of the shared reference gain error.
  actual_full_scale_ = pv.vary(full_scale_ * (1.0 + gain_error), 0.003);
}

RampGenerator RampGenerator::typical() {
  analog::ProcessVariation pv = analog::ProcessVariation::nominal();
  return RampGenerator(2.5, 1.0, 0.0, pv);
}

double RampGenerator::value(double t) const {
  if (t <= 0) return 0.0;
  if (t >= ramp_time_) return actual_full_scale_;
  return actual_full_scale_ * t / ramp_time_;
}

std::vector<double> RampGenerator::measurement_times(std::size_t count,
                                                     double interval) const {
  std::vector<double> times(count);
  for (std::size_t i = 0; i < count; ++i) {
    times[i] = interval * static_cast<double>(i + 1);
  }
  return times;
}


}  // namespace msbist::bist
