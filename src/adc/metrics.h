// ADC specification metrics: quantisation error, zero offset, gain error,
// INL and DNL — the "main ADC specification parameters" of the paper.
//
// Metrics are computed from code-transition levels in the standard way
// (IEEE 1057-style, endpoint-corrected): with measured transitions T[k]
// between code k and k+1,
//   LSB_meas = (T[last] - T[first]) / (#transitions - 1)
//   offset   = (T[first] - T_ideal[first]) / LSB_ideal
//   gain     = (LSB_meas - LSB_ideal) * span / LSB_ideal
//   DNL[k]   = (T[k+1] - T[k]) / LSB_meas - 1
//   INL[k]   = (T[k] - (T[first] + k LSB_meas)) / LSB_meas
// Transition levels are found by a fine ramp sweep; a servo (bisection)
// search locates one transition at a time and serves as the sweep's
// independent check.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/outcome.h"

namespace msbist::adc {

/// The quantity a converter test measures: input voltage -> output code,
/// with codes increasing with voltage (adapt inverted converters first).
using AdcTransferFn = std::function<std::uint32_t(double)>;

/// Measured code-transition levels: transition[k] is the input voltage at
/// which the mean output code crosses the k-th half-level above base_code
/// going *upward*. For a monotonic transfer that is exactly "code
/// base_code + k -> base_code + k + 1".
///
/// A non-monotonic transfer (the DNL < -1 / missing-decision-level case)
/// also crosses half-levels *downward*; those crossings are recorded in
/// `reverse_transitions` and clear the `monotonic` flag. `transitions`
/// itself keeps exactly one entry per half-level (its first upward
/// crossing), so metrics on it are unaffected — but a cleared `monotonic`
/// flag tells the caller the transfer rebounded and the voltages near the
/// reverse crossings deserve scrutiny.
struct TransitionLevels {
  /// The rounded mean code at the sweep's first point. Signed: a code
  /// axis mapped from a faulty converter can start below zero.
  std::int64_t base_code = 0;
  std::vector<double> transitions;
  bool monotonic = true;  ///< false if any downward half-level crossing seen
  std::vector<double> reverse_transitions;  ///< downward-crossing voltages
};

/// Locate transition levels with a fine voltage ramp over [v_lo, v_hi].
/// step_v should be a small fraction of one LSB (e.g. LSB/40). A noisy
/// converter flickers near each transition, so the code at each ramp
/// point is averaged over samples_per_point conversions and a transition
/// is recorded where the mean code crosses the half-code level (the
/// standard 50 %-probability definition of a transition voltage).
TransitionLevels measure_transitions_ramp(const AdcTransferFn& adc, double v_lo,
                                          double v_hi, double step_v,
                                          int samples_per_point = 1);

/// The sweep points measure_transitions_ramp visits, in order: v_lo, then
/// v_lo + i * step_v up to v_hi (a final point past v_hi by one rounding
/// ulp is pinned to v_hi). Throws std::invalid_argument unless step_v > 0
/// and v_hi > v_lo.
std::vector<double> ramp_sweep_points(double v_lo, double v_hi, double step_v);

/// The transition search of measure_transitions_ramp, over the mean code
/// already measured at each of its sweep points: for callers that convert
/// a whole sweep in one batch. The first point's mean sets base_code.
/// Throws std::invalid_argument unless there is one mean per point and at
/// least one point.
TransitionLevels transitions_from_sweep(const std::vector<double>& points,
                                        const std::vector<double>& mean_codes);

/// Locate one transition voltage by servo (bisection) search: the input
/// where the converter outputs >= target_code on at least half of
/// `votes` conversions. The transfer must be monotone non-decreasing over
/// [v_lo, v_hi]. Tighter than the ramp method for a single code at the
/// cost of more conversions.
double measure_transition_servo(const AdcTransferFn& adc, std::uint32_t target_code,
                                double v_lo, double v_hi, int votes = 15,
                                int iterations = 24);

/// Pass/fail limits for the specification metrics. The paper's one
/// characterized device measured offset < 0.2 LSB, gain +/-0.5 LSB, INL
/// max ~1.3 LSB, DNL max ~1.2 LSB; across a fabricated lot the process
/// spreads these much wider (offset is the loosest parameter of the
/// macro library's spec sheet). Defaults are production screen limits
/// that the paper's 10-device lot passes with guard-band.
struct MetricsLimits {
  double max_abs_offset_lsb = 4.5;
  double max_abs_gain_error_lsb = 2.5;
  double max_abs_dnl_lsb = 2.0;
  double max_abs_inl_lsb = 2.0;
};

/// Full specification metrics.
struct AdcMetrics {
  double lsb_ideal = 0.0;
  double lsb_measured = 0.0;
  double offset_lsb = 0.0;       ///< zero-offset error [LSB]
  double gain_error_lsb = 0.0;   ///< full-span gain error [LSB]
  std::vector<double> dnl_lsb;   ///< one entry per code step
  std::vector<double> inl_lsb;   ///< one entry per transition
  double max_abs_dnl = 0.0;
  double max_abs_inl = 0.0;

  /// Unified report API: check the summary numbers against limits.
  core::Outcome outcome(const MetricsLimits& limits = {}) const;
  /// Serialize; include_curves controls the per-code DNL/INL arrays
  /// (batch reports drop them to keep thousand-device documents small).
  void to_json(core::JsonWriter& w, bool include_curves = true) const;
};

/// Compute metrics from measured transitions. lsb_ideal and the ideal
/// first-transition voltage define the nominal transfer.
AdcMetrics compute_metrics(const TransitionLevels& t, double lsb_ideal,
                           double ideal_first_transition_v);

}  // namespace msbist::adc
