#include "dsp/state_space.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msbist::dsp {

namespace {

/// Monic polynomial with the given roots, highest power first. Complex
/// roots must come in conjugate pairs (checked; throws otherwise) so the
/// coefficients are real.
std::vector<double> poly_from_roots(const std::vector<std::complex<double>>& roots) {
  // Multiply out (x - r) factors with complex coefficients, then check the
  // imaginary parts cancel (conjugate-pair requirement).
  std::vector<std::complex<double>> acc{{1.0, 0.0}};
  for (const auto& r : roots) {
    std::vector<std::complex<double>> next(acc.size() + 1, {0.0, 0.0});
    for (std::size_t i = 0; i < acc.size(); ++i) {
      next[i] += acc[i];
      next[i + 1] -= acc[i] * r;
    }
    acc = std::move(next);
  }
  std::vector<double> out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const double scale_ref = std::max(1.0, std::abs(acc[i]));
    if (std::abs(acc[i].imag()) > 1e-9 * scale_ref) {
      throw std::invalid_argument(
          "poly_from_roots: complex roots must come in conjugate pairs");
    }
    out[i] = acc[i].real();
  }
  return out;
}

/// e^{A dt}, taken as the top-left block of the zero-order-hold
/// exponential expm([[A B],[0 0]] dt). The augmented matrix's norm sets
/// expm's scaling, so this block keeps every impulse sample bit-identical
/// to the full ZOH discretization the pole comparison was built on;
/// expm(A dt) alone could round differently.
Matrix transition(const Matrix& a, const Matrix& b, double dt) {
  if (dt <= 0) throw std::invalid_argument("StateSpace: dt must be > 0");
  const std::size_t n = a.rows();
  Matrix aug(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) aug(i, j) = a(i, j) * dt;
    aug(i, n) = b(i, 0) * dt;
  }
  const Matrix e = expm(aug);
  Matrix ad(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) ad(i, j) = e(i, j);
  }
  return ad;
}

}  // namespace

StateSpace::StateSpace(Matrix a, Matrix b, Matrix c, double d)
    : a_(std::move(a)), b_(std::move(b)), c_(std::move(c)), d_(d) {
  if (a_.rows() != a_.cols()) throw std::invalid_argument("StateSpace: A must be square");
  if (b_.rows() != a_.rows() || b_.cols() != 1) {
    throw std::invalid_argument("StateSpace: B must be n x 1");
  }
  if (c_.cols() != a_.rows() || c_.rows() != 1) {
    throw std::invalid_argument("StateSpace: C must be 1 x n");
  }
}

StateSpace StateSpace::from_zpk(const std::vector<std::complex<double>>& zeros,
                                const std::vector<std::complex<double>>& poles,
                                double gain) {
  if (zeros.size() > poles.size()) {
    throw std::invalid_argument("from_zpk: more zeros than poles (improper system)");
  }
  std::vector<double> num = poly_from_roots(zeros);
  for (double& c : num) c *= gain;
  const std::vector<double> den = poly_from_roots(poles);
  return from_transfer_function(num, den);
}

StateSpace StateSpace::from_transfer_function(const std::vector<double>& num_in,
                                              const std::vector<double>& den_in) {
  std::vector<double> den = den_in;
  while (!den.empty() && den.front() == 0.0) den.erase(den.begin());
  if (den.empty()) throw std::invalid_argument("from_transfer_function: zero denominator");
  std::vector<double> num = num_in;
  while (!num.empty() && num.front() == 0.0) num.erase(num.begin());
  if (num.size() > den.size()) {
    throw std::invalid_argument("from_transfer_function: improper transfer function");
  }
  // Normalize to a monic denominator.
  const double lead = den.front();
  for (double& c : den) c /= lead;
  for (double& c : num) c /= lead;
  // Pad the numerator to the denominator length.
  std::vector<double> n_pad(den.size(), 0.0);
  std::copy(num.begin(), num.end(), n_pad.end() - static_cast<std::ptrdiff_t>(num.size()));

  const std::size_t order = den.size() - 1;
  const double d = n_pad[0];
  if (order == 0) {
    // Pure gain: represent with an empty state.
    return StateSpace(Matrix(0, 0), Matrix(0, 1), Matrix(1, 0), d);
  }
  // Controllable canonical form.
  Matrix a(order, order);
  for (std::size_t j = 0; j < order; ++j) a(0, j) = -den[j + 1];
  for (std::size_t i = 1; i < order; ++i) a(i, i - 1) = 1.0;
  Matrix b(order, 1);
  b(0, 0) = 1.0;
  Matrix c(1, order);
  for (std::size_t j = 0; j < order; ++j) c(0, j) = n_pad[j + 1] - d * den[j + 1];
  return StateSpace(std::move(a), std::move(b), std::move(c), d);
}

std::vector<double> StateSpace::impulse(double dt, std::size_t n) const {
  std::vector<double> y(n, 0.0);
  if (n == 0) return y;
  if (order() == 0) {
    y[0] = d_ / dt;
    return y;
  }
  const Matrix ad = transition(a_, b_, dt);
  // Continuous impulse response h(t) = C e^{At} B (+ D delta(t)).
  std::vector<double> x(order());
  for (std::size_t i = 0; i < order(); ++i) x[i] = b_(i, 0);
  for (std::size_t k = 0; k < n; ++k) {
    double out = 0.0;
    for (std::size_t i = 0; i < order(); ++i) out += c_(0, i) * x[i];
    y[k] = out;
    x = ad * x;
  }
  y[0] += d_ / dt;
  return y;
}

}  // namespace msbist::dsp
