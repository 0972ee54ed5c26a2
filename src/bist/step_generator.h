// On-chip DC step-input macro.
//
// "The step input macro produced voltage steps of 0, 0.59, 0.96, 1.41,
// 1.8 and 2.5 volts" (paper, Analogue test results) — a resistor-string
// divider off the 2.5 V reference with a tap selector. Process variation
// perturbs the string ratios slightly; a gain error in the reference
// scales every tap together (which is what makes the matched-gain-error
// masking effect of the ramp test possible).
#pragma once

#include <cstddef>
#include <vector>

#include "analog/macro.h"

namespace msbist::bist {

/// The paper's published tap levels.
std::vector<double> paper_step_levels();

class StepGenerator {
 public:
  /// Nominal tap levels scaled by the reference; gain_error scales all
  /// taps (reference error), pv adds per-tap ratio mismatch.
  StepGenerator(std::vector<double> nominal_levels, double gain_error,
                analog::ProcessVariation& pv);

  /// The paper's macro with no gain error on a typical die.
  static StepGenerator typical();

  std::size_t tap_count() const { return levels_.size(); }
  double level(std::size_t tap) const;
  const std::vector<double>& levels() const { return levels_; }

  /// Analogue-section transistor cost of this macro (tap switches plus
  /// reference buffer), part of the paper's 152-transistor overhead.
  static constexpr int kTransistorCount = 24;

 private:
  std::vector<double> levels_;
};

}  // namespace msbist::bist
