// Vector helpers the tests use to build inputs and to check outputs. The
// library itself needs none of them, so they live here rather than in
// dsp/vec.h. They keep the dsp namespace so call sites read the same.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/vec.h"

namespace msbist::dsp {

/// Element-wise sum. Throws std::invalid_argument when sizes differ.
inline std::vector<double> add(const std::vector<double>& a,
                               const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("vector size mismatch: " + std::to_string(a.size()) +
                                " vs " + std::to_string(b.size()));
  }
  std::vector<double> r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
  return r;
}

/// Population standard deviation (divides by N). Throws on an empty vector.
inline double stddev(const std::vector<double>& a) {
  const double m = mean(a);
  double acc = 0.0;
  for (double x : a) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(a.size()));
}

/// Largest element. Throws on an empty vector.
inline double max(const std::vector<double>& a) {
  if (a.empty()) throw std::invalid_argument("empty vector");
  return *std::max_element(a.begin(), a.end());
}

/// Smallest element. Throws on an empty vector.
inline double min(const std::vector<double>& a) {
  if (a.empty()) throw std::invalid_argument("empty vector");
  return *std::min_element(a.begin(), a.end());
}

/// Index of the largest element. Throws on an empty vector.
inline std::size_t argmax(const std::vector<double>& a) {
  if (a.empty()) throw std::invalid_argument("empty vector");
  return static_cast<std::size_t>(std::max_element(a.begin(), a.end()) - a.begin());
}

/// Index of the largest absolute value. Throws on an empty vector.
inline std::size_t argmax_abs(const std::vector<double>& a) {
  if (a.empty()) throw std::invalid_argument("empty vector");
  std::size_t best = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (std::abs(a[i]) > std::abs(a[best])) best = i;
  }
  return best;
}

/// Evenly spaced vector of n points from start to stop inclusive.
/// n == 1 yields {start}. Throws on n == 0.
inline std::vector<double> linspace(double start, double stop, std::size_t n) {
  if (n == 0) throw std::invalid_argument("linspace: n must be >= 1");
  std::vector<double> r(n);
  if (n == 1) {
    r[0] = start;
    return r;
  }
  const double step = (stop - start) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) r[i] = start + step * static_cast<double>(i);
  return r;
}

/// True when |a[i] - b[i]| <= tol for all i and sizes match.
inline bool approx_equal(const std::vector<double>& a, const std::vector<double>& b,
                         double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

/// Frequencies (Hz) of the one-sided bins of magnitude_spectrum() for a
/// signal of length n sampled at sample_rate.
inline std::vector<double> spectrum_frequencies(std::size_t n, double sample_rate) {
  if (n == 0) return {};
  std::vector<double> f(n / 2 + 1);
  for (std::size_t k = 0; k < f.size(); ++k) {
    f[k] = sample_rate * static_cast<double>(k) / static_cast<double>(n);
  }
  return f;
}

}  // namespace msbist::dsp
