// Linear convolution and deconvolution.
//
// The transient-response technique of the paper rests on the composition
// y(t) = x(t) * h(t) * z(t); these routines implement the discrete-time
// convolution operator (direct for short signals, FFT-based for long ones).
#pragma once

#include <cstddef>
#include <vector>

namespace msbist::dsp {

/// Full linear convolution; result length is a.size() + b.size() - 1.
/// O(N*M) — preferred for short kernels.
std::vector<double> convolve_direct(const std::vector<double>& a,
                                    const std::vector<double>& b);

/// Full linear convolution via FFT; identical result to convolve_direct
/// up to rounding. O((N+M) log(N+M)).
std::vector<double> convolve_fft(const std::vector<double>& a,
                                 const std::vector<double>& b);

/// Picks direct or FFT convolution on a size heuristic.
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b);

}  // namespace msbist::dsp
