// Discrete-time (z-domain) transfer functions.
//
// The paper's switched-capacitor integrator is specified in the z domain:
//   H(z) = Vout(z)/Vin(z) = z^-1 / (6.8 (1 - z^-1))
// ZTransfer implements the general rational transfer function in powers of
// z^-1 as a direct-form-II-transposed difference equation, plus impulse /
// step responses, poles and the frequency response. It serves as the
// golden behavioural reference the transistor-level SC integrator is
// validated against.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace msbist::dsp {

class ZTransfer {
 public:
  /// num and den are coefficients of z^0, z^-1, z^-2, ... ; den[0] must be
  /// nonzero (it normalizes the rest).
  ZTransfer(std::vector<double> num, std::vector<double> den);

  /// The paper's SC integrator: H(z) = z^-1 / (k (1 - z^-1)); the paper
  /// uses k = 6.8 (capacitor ratio).
  static ZTransfer sc_integrator(double k = 6.8);

  /// First-order low-pass via the bilinear transform of 1/(1 + s/w0) at
  /// sample time dt.
  static ZTransfer first_order_lowpass(double cutoff_hz, double dt);

  const std::vector<double>& num() const { return num_; }
  const std::vector<double>& den() const { return den_; }

  /// Filter an input sequence from zero initial conditions.
  std::vector<double> filter(const std::vector<double>& u) const;

  /// Impulse response of length n.
  std::vector<double> impulse(std::size_t n) const;

  /// Unit-step response of length n.
  std::vector<double> step(std::size_t n) const;

  /// Poles in the z plane (roots of the denominator in z).
  std::vector<std::complex<double>> poles() const;

  /// Frequency response H(e^{j w}) at normalized angular frequency
  /// w in [0, pi] (radians/sample).
  std::complex<double> frequency_response(double w) const;

  /// True when every pole is strictly inside the unit circle.
  bool is_stable() const;

 private:
  std::vector<double> num_;
  std::vector<double> den_;  // den_[0] == 1 after normalization
};

}  // namespace msbist::dsp
