#include "dsp/noise.h"

#include <random>

namespace msbist::dsp {

std::vector<double> gaussian_noise(std::size_t n, double sigma, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, sigma);
  std::vector<double> out(n);
  for (auto& v : out) v = sigma > 0.0 ? dist(rng) : 0.0;
  return out;
}

std::vector<double> add_noise(const std::vector<double>& x, double sigma,
                              std::uint64_t seed) {
  std::vector<double> noise = gaussian_noise(x.size(), sigma, seed);
  for (std::size_t i = 0; i < x.size(); ++i) noise[i] += x[i];
  return noise;
}

}  // namespace msbist::dsp
