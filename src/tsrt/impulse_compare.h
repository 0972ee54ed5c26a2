// The paper's second testing approach: impulse-response comparison via
// state-space models.
//
// In the paper, HSPICE provided "the poles, zeros and constants for the
// transfer functions of the fault-free circuit and faulty circuits";
// Matlab turned those into state-space representations whose impulse
// responses were compared. Here the model-extraction step is an ARX
// (least-squares difference-equation) fit of the simulated circuit sampled
// at switched-capacitor cycle boundaries:
//     v_out[n+1] = a v_out[n] + b v_in[n] + c
// which for the fault-free integrator recovers a ~= 1, b ~= 1/6.8
// (H(z) = b z^-1 / (1 - a z^-1), the paper's design equation). A
// first-order model needs no state-space machinery: its impulse response
// is the recursion h[0] = 0, h[1] = b, h[k] = a h[k-1]. Impulse responses
// of the fault-free and faulty fits are compared with the same
// detection-instance metric as approach 1.
#pragma once

#include <cstddef>
#include <vector>

#include "tsrt/detector.h"

namespace msbist::tsrt {

/// First-order ARX fit of sampled input/output data.
struct ArxFit {
  double a = 0.0;  ///< pole (vout[n] coefficient)
  double b = 0.0;  ///< input gain (vin[n] coefficient)
  double c = 0.0;  ///< constant drive (offsets, stuck levels)
  double residual_rms = 0.0;

  /// Impulse response of the fitted H(z) = b z^-1 / (1 - a z^-1), n
  /// samples (the constant c is an offset, not part of the signal path).
  std::vector<double> impulse(std::size_t n) const;
};

/// Least-squares fit of vout[n+1] = a vout[n] + b vin[n] + c over the
/// given sampled sequences (sizes must match, >= 8 samples).
ArxFit fit_arx(const std::vector<double>& vin, const std::vector<double>& vout);

/// Detection instances between two fitted models' impulse responses.
double impulse_detection_percent(const ArxFit& reference, const ArxFit& faulty,
                                 std::size_t impulse_samples = 64,
                                 const DetectorOptions& opts = {});

/// Downsample a transient waveform to one sample per SC cycle, sampling
/// just before each cycle boundary (the settled end-of-phase-2 value).
std::vector<double> sample_per_cycle(const std::vector<double>& waveform, double dt,
                                     double cycle_time);

/// End-to-end model extraction for the SC circuits: sample stimulus and
/// response per cycle, remove the mid-rail, align the input so u[n] is
/// the sample that drives y[n+1] (the input sampled in phase 1 of cycle
/// n+1 transfers during phase 2 of that same cycle), and fit the ARX
/// model. This is the HSPICE->Matlab pole/zero extraction substitute.
ArxFit fit_sc_cycles(const std::vector<double>& stimulus,
                     const std::vector<double>& response, double dt,
                     double cycle_time, double mid_rail);

}  // namespace msbist::tsrt
