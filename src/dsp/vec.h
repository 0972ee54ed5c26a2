// Elementary vector arithmetic and statistics used throughout the library.
//
// All signals in msbist are plain std::vector<double> sampled uniformly in
// time; these helpers keep the numerical code in the higher layers terse.
#pragma once

#include <vector>

namespace msbist::dsp {

/// Element-wise product. Both vectors must have the same size.
std::vector<double> mul(const std::vector<double>& a, const std::vector<double>& b);

/// Inner product. Both vectors must have the same size.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Sum of all elements (0 for an empty vector).
double sum(const std::vector<double>& a);

/// Arithmetic mean. Throws std::invalid_argument on an empty vector.
double mean(const std::vector<double>& a);

/// Largest absolute value (0 for an empty vector).
double max_abs(const std::vector<double>& a);

}  // namespace msbist::dsp
