// Magnitude spectra.
//
// The paper's technique detects "possible minor changes to the signal
// spectrum, indicative of circuit faults" — these helpers expose that
// frequency-domain view of a captured transient.
#pragma once

#include <vector>

#include "dsp/window.h"

namespace msbist::dsp {

/// One-sided magnitude spectrum of a real signal (bins 0 .. N/2), windowed
/// and scaled by 2/(N * coherent_gain) so a full-scale sine reads its
/// amplitude. Bin 0 and (for even N) the Nyquist bin are not doubled.
std::vector<double> magnitude_spectrum(const std::vector<double>& x,
                                       WindowKind window_kind = WindowKind::kHann);

}  // namespace msbist::dsp
