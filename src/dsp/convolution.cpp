#include "dsp/convolution.h"

#include <stdexcept>

#include "dsp/fft.h"

namespace msbist::dsp {

std::vector<double> convolve_direct(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> r(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) r[i + j] += a[i] * b[j];
  }
  return r;
}

std::vector<double> convolve_fft(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out = a.size() + b.size() - 1;
  const std::size_t n = next_power_of_two(out);
  cvec fa(n, {0.0, 0.0});
  cvec fb(n, {0.0, 0.0});
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = {a[i], 0.0};
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = {b[i], 0.0};
  fa = fft(fa);
  fb = fft(fb);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  std::vector<double> full = ifft_real(fa);
  full.resize(out);
  return full;
}

std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b) {
  // Direct wins whenever the smaller operand is short; the crossover is
  // broad, 64 is a safe middle.
  if (a.size() < 64 || b.size() < 64) return convolve_direct(a, b);
  return convolve_fft(a, b);
}

}  // namespace msbist::dsp
