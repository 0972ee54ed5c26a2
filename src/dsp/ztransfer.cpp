#include "dsp/ztransfer.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/polynomial.h"

namespace msbist::dsp {

ZTransfer::ZTransfer(std::vector<double> num, std::vector<double> den)
    : num_(std::move(num)), den_(std::move(den)) {
  if (den_.empty() || den_[0] == 0.0) {
    throw std::invalid_argument("ZTransfer: den[0] must be nonzero");
  }
  if (num_.empty()) num_ = {0.0};
  const double d0 = den_[0];
  for (double& c : num_) c /= d0;
  for (double& c : den_) c /= d0;
}

ZTransfer ZTransfer::sc_integrator(double k) {
  if (k == 0.0) throw std::invalid_argument("sc_integrator: k must be nonzero");
  // H(z) = z^-1 / (k (1 - z^-1)) = (1/k) z^-1 / (1 - z^-1)
  return ZTransfer({0.0, 1.0 / k}, {1.0, -1.0});
}

ZTransfer ZTransfer::first_order_lowpass(double cutoff_hz, double dt) {
  if (cutoff_hz <= 0 || dt <= 0) {
    throw std::invalid_argument("first_order_lowpass: cutoff and dt must be > 0");
  }
  // Bilinear transform of H(s) = 1/(1 + s/w0) with pre-warping omitted
  // (the macro models operate far below Nyquist).
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz;
  const double a = 2.0 / (w0 * dt);
  // H(z) = (1 + z^-1) / ((1 + a) + (1 - a) z^-1)
  return ZTransfer({1.0, 1.0}, {1.0 + a, 1.0 - a});
}

std::vector<double> ZTransfer::filter(const std::vector<double>& u) const {
  // Direct form II transposed:
  //   y[n]   = b0 u[n] + s0
  //   s[i]   = s[i+1] + b[i+1] u[n] - a[i+1] y[n]   (i = 0 .. N-2)
  //   s[N-1] = b[N] u[n] - a[N] y[n]
  const std::size_t order = std::max(num_.size(), den_.size()) - 1;
  const auto b = [&](std::size_t i) { return i < num_.size() ? num_[i] : 0.0; };
  const auto a = [&](std::size_t i) { return i < den_.size() ? den_[i] : 0.0; };
  std::vector<double> state(order, 0.0);
  std::vector<double> y(u.size(), 0.0);
  for (std::size_t n = 0; n < u.size(); ++n) {
    const double out = b(0) * u[n] + (order > 0 ? state[0] : 0.0);
    for (std::size_t i = 0; i + 1 < order; ++i) {
      state[i] = state[i + 1] + b(i + 1) * u[n] - a(i + 1) * out;
    }
    if (order > 0) state[order - 1] = b(order) * u[n] - a(order) * out;
    y[n] = out;
  }
  return y;
}

std::vector<double> ZTransfer::impulse(std::size_t n) const {
  std::vector<double> u(n, 0.0);
  if (n > 0) u[0] = 1.0;
  return filter(u);
}

std::vector<double> ZTransfer::step(std::size_t n) const {
  return filter(std::vector<double>(n, 1.0));
}

namespace {

// Convert coefficients in powers of z^-1 into a polynomial in z
// (highest power first) of the given total length.
Poly to_z_poly(const std::vector<double>& c, std::size_t len) {
  Poly p(len, 0.0);
  for (std::size_t i = 0; i < c.size(); ++i) p[i] = c[i];
  return p;
}

}  // namespace

std::vector<std::complex<double>> ZTransfer::poles() const {
  const std::size_t len = std::max(num_.size(), den_.size());
  const Poly p = to_z_poly(den_, len);
  return poly_roots(p);
}

std::complex<double> ZTransfer::frequency_response(double w) const {
  const std::complex<double> zinv = std::polar(1.0, -w);
  std::complex<double> n{0.0, 0.0}, d{0.0, 0.0};
  std::complex<double> zk{1.0, 0.0};
  for (std::size_t i = 0; i < std::max(num_.size(), den_.size()); ++i) {
    if (i < num_.size()) n += num_[i] * zk;
    if (i < den_.size()) d += den_[i] * zk;
    zk *= zinv;
  }
  return n / d;
}

bool ZTransfer::is_stable() const {
  for (const auto& p : poles()) {
    if (std::abs(p) >= 1.0 - 1e-12) return false;
  }
  return true;
}

}  // namespace msbist::dsp
