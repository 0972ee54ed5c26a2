#include "dsp/spectrum.h"

#include <cmath>

#include "dsp/fft.h"

namespace msbist::dsp {

std::vector<double> magnitude_spectrum(const std::vector<double>& x,
                                       WindowKind window_kind) {
  if (x.empty()) return {};
  const std::vector<double> w = apply_window(x, window_kind);
  const cvec X = fft_real(w);
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  const double cg = coherent_gain(window_kind, n);
  const double base = 1.0 / (static_cast<double>(n) * (cg > 0 ? cg : 1.0));
  std::vector<double> mag(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    double s = base * std::abs(X[k]);
    const bool is_dc = (k == 0);
    const bool is_nyquist = (n % 2 == 0 && k == half);
    if (!is_dc && !is_nyquist) s *= 2.0;
    mag[k] = s;
  }
  return mag;
}

}  // namespace msbist::dsp
