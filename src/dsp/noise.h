// Deterministic noise generation.
//
// Fabricated devices superimpose "the composite noise signal yn(t)" on the
// captured transient (paper, "Technique details"); the library models it as
// additive white Gaussian noise from an explicitly seeded generator so
// every experiment is reproducible bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace msbist::dsp {

/// n samples of zero-mean Gaussian noise with the given standard deviation.
std::vector<double> gaussian_noise(std::size_t n, double sigma, std::uint64_t seed);

/// Copy of x with zero-mean Gaussian noise of absolute level sigma added.
std::vector<double> add_noise(const std::vector<double>& x, double sigma,
                              std::uint64_t seed);

}  // namespace msbist::dsp
