// Common infrastructure for the analogue macro library.
//
// The paper's gate-array macro library offers "voltage references, current
// mirrors, operational amplifiers, voltage and current comparators,
// oscillators, ADCs and DACs", each with a published specification. Every
// behavioural macro in this module takes its parameters through a
// process-variation hook so a fabricated batch can be simulated by seeding
// each die differently.
#pragma once

#include <cstdint>
#include <random>

namespace msbist::analog {

/// Deterministic process-variation sampler for one fabricated die.
/// Each die gets its own seed; every parameter drawn from the same die is
/// reproducible, and parameter draws are independent across calls.
class ProcessVariation {
 public:
  explicit ProcessVariation(std::uint64_t die_seed) : rng_(die_seed) {}

  /// Nominal value perturbed by a Gaussian with relative sigma, truncated
  /// at +/-3 sigma (gross outliers are modelled as faults, not variation).
  double vary(double nominal, double rel_sigma);

  /// Absolute-sigma variant (for offsets whose nominal is zero).
  double vary_abs(double nominal, double abs_sigma);

  /// No variation at all — the "typical" die.
  static ProcessVariation nominal();

  /// Is this the no-variation sampler?
  bool is_nominal() const { return nominal_; }

 private:
  ProcessVariation() : rng_(0), nominal_(true) {}
  std::mt19937_64 rng_;
  bool nominal_ = false;
};

}  // namespace msbist::analog
