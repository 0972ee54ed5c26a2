#include "bist/step_generator.h"

#include <stdexcept>
#include <utility>

namespace msbist::bist {

std::vector<double> paper_step_levels() {
  return {0.0, 0.59, 0.96, 1.41, 1.8, 2.5};
}

StepGenerator::StepGenerator(std::vector<double> nominal_levels, double gain_error,
                             analog::ProcessVariation& pv)
    : levels_(std::move(nominal_levels)) {
  if (levels_.empty()) {
    throw std::invalid_argument("StepGenerator: needs at least one tap");
  }
  for (double& v : levels_) {
    // Reference gain error scales everything; the string ratio itself
    // matches to ~0.2 %.
    v = pv.vary(v * (1.0 + gain_error), 0.002);
  }
}

StepGenerator StepGenerator::typical() {
  analog::ProcessVariation pv = analog::ProcessVariation::nominal();
  return StepGenerator(paper_step_levels(), 0.0, pv);
}

double StepGenerator::level(std::size_t tap) const {
  if (tap >= levels_.size()) {
    throw std::out_of_range("StepGenerator: tap index out of range");
  }
  return levels_[tap];
}


}  // namespace msbist::bist
