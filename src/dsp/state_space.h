// Continuous-time state-space models.
//
// The paper's second testing approach builds state-space representations of
// the fault-free and faulty circuits from their poles/zeros/constants
// (HSPICE -> Matlab in 1996) and compares impulse responses. StateSpace is
// the Matlab substitute: construction from poles, zeros and gain (or a
// transfer function), and the impulse response sampled through the exact
// discretization of the matrix exponential.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "dsp/matrix.h"

namespace msbist::dsp {

/// Single-input single-output continuous-time linear system
///   x' = A x + B u,  y = C x + D u.
class StateSpace {
 public:
  StateSpace() = default;
  /// B must be n x 1 and C 1 x n where A is n x n.
  StateSpace(Matrix a, Matrix b, Matrix c, double d);

  /// Build from a transfer function H(s) = gain * num(s) / den(s) given as
  /// zeros, poles and gain. Complex zeros/poles must appear in conjugate
  /// pairs; the number of zeros must not exceed the number of poles.
  /// Uses the controllable canonical form.
  static StateSpace from_zpk(const std::vector<std::complex<double>>& zeros,
                             const std::vector<std::complex<double>>& poles,
                             double gain);

  /// Build from transfer-function coefficients (highest power first).
  static StateSpace from_transfer_function(const std::vector<double>& num,
                                           const std::vector<double>& den);

  std::size_t order() const { return a_.rows(); }
  const Matrix& a() const { return a_; }
  const Matrix& b() const { return b_; }
  const Matrix& c() const { return c_; }
  double d() const { return d_; }

  /// Impulse response sampled at dt for n samples (the response to a unit
  /// Dirac impulse; the direct-feedthrough D term contributes only at t=0
  /// and is reported as D/dt, the discrete-impulse convention).
  std::vector<double> impulse(double dt, std::size_t n) const;

 private:
  Matrix a_, b_, c_;
  double d_ = 0.0;
};

}  // namespace msbist::dsp
