// Cross-correlation — the heart of the transient-response test.
//
// Correlating the captured transient y(t) with a signal p(t) derived from
// the applied PRBS stimulus yields R(y,p), which equals the composite
// impulse response of the signal path currently propagating the stimulus
// (paper, "Technique details").
#pragma once

#include <vector>

namespace msbist::dsp {

/// Raw cross-correlation R_xy[lag] = sum_n x[n] * y[n + lag] for
/// lag in [-(y.size()-1), x.size()-1]. Result length x.size()+y.size()-1;
/// index 0 corresponds to the most negative lag.
std::vector<double> cross_correlate(const std::vector<double>& x,
                                    const std::vector<double>& y);

}  // namespace msbist::dsp
