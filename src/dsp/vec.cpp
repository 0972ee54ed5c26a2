#include "dsp/vec.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace msbist::dsp {

namespace {

void require_same_size(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("vector size mismatch: " + std::to_string(a.size()) +
                                " vs " + std::to_string(b.size()));
  }
}

}  // namespace

std::vector<double> mul(const std::vector<double>& a, const std::vector<double>& b) {
  require_same_size(a, b);
  std::vector<double> r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] * b[i];
  return r;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  require_same_size(a, b);
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

double sum(const std::vector<double>& a) {
  return std::accumulate(a.begin(), a.end(), 0.0);
}

double mean(const std::vector<double>& a) {
  if (a.empty()) throw std::invalid_argument("empty vector");
  return sum(a) / static_cast<double>(a.size());
}

double max_abs(const std::vector<double>& a) {
  double m = 0.0;
  for (double x : a) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace msbist::dsp
