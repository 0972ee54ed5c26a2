#include "adc/metrics.h"

#include "core/job.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msbist::adc {

std::vector<double> ramp_sweep_points(double v_lo, double v_hi, double step_v) {
  if (step_v <= 0 || v_hi <= v_lo) {
    throw std::invalid_argument("ramp_sweep_points: bad sweep parameters");
  }
  // Index-based stepping (v = v_lo + i * step_v): accumulating `v += step_v`
  // compounds rounding error, and with a `v <= v_hi` guard an exactly
  // divisible span like 2.5 V / 0.1 V lands just past v_hi and silently
  // drops the final sweep point. The relative epsilon keeps an
  // exactly-divisible endpoint inside the sweep.
  const auto steps = static_cast<std::size_t>(
      std::floor((v_hi - v_lo) / step_v * (1.0 + 1e-12) + 1e-12));
  std::vector<double> points;
  points.reserve(steps + 1);
  points.push_back(v_lo);
  for (std::size_t i = 1; i <= steps; ++i) {
    double v = v_lo + static_cast<double>(i) * step_v;
    if (v > v_hi) v = v_hi;  // final point may overshoot by one rounding ulp
    points.push_back(v);
  }
  return points;
}

TransitionLevels measure_transitions_ramp(const AdcTransferFn& adc, double v_lo,
                                          double v_hi, double step_v,
                                          int samples_per_point) {
  if (step_v <= 0 || v_hi <= v_lo || samples_per_point < 1) {
    throw std::invalid_argument("measure_transitions_ramp: bad sweep parameters");
  }
  const std::vector<double> points = ramp_sweep_points(v_lo, v_hi, step_v);
  std::vector<double> means;
  means.reserve(points.size());
  for (double v : points) {
    double acc = 0.0;
    for (int s = 0; s < samples_per_point; ++s) acc += static_cast<double>(adc(v));
    means.push_back(acc / static_cast<double>(samples_per_point));
  }
  return transitions_from_sweep(points, means);
}

TransitionLevels transitions_from_sweep(const std::vector<double>& points,
                                        const std::vector<double>& mean_codes) {
  if (points.empty() || mean_codes.size() != points.size()) {
    throw std::invalid_argument(
        "transitions_from_sweep: need one mean code per sweep point");
  }
  TransitionLevels out;
  double prev_v = points[0];
  double prev_mean = mean_codes[0];
  out.base_code = std::llround(prev_mean);
  // The next half-level the mean code must cross upward.
  double next_level = std::floor(prev_mean) + 0.5;
  if (prev_mean >= next_level) next_level += 1.0;

  for (std::size_t i = 1; i < points.size(); ++i) {
    const double v = points[i];
    const double mean = mean_codes[i];
    // Record one transition per half-level crossed upward this step; a
    // multi-code jump (missing code) deposits several transitions at the
    // same voltage, which shows up as DNL = -1 at the skipped step.
    while (mean >= next_level) {
      // Linear interpolation between the two ramp points for sub-step
      // transition placement.
      const double frac =
          mean > prev_mean ? (next_level - prev_mean) / (mean - prev_mean) : 0.5;
      out.transitions.push_back(prev_v + frac * (v - prev_v));
      next_level += 1.0;
    }
    // Downward crossings: the mean fell back through a half-level — a
    // non-monotonic transfer (missing decision level / rebound). These are
    // recorded separately; `transitions` keeps one entry per half-level
    // (the first upward crossing), so monotonic metrics are unaffected.
    double level = std::floor(prev_mean + 0.5) - 0.5;  // highest half-level <= prev_mean
    if (level > next_level - 1.0) level = next_level - 1.0;
    while (level > mean) {
      const double frac =
          prev_mean > mean ? (prev_mean - level) / (prev_mean - mean) : 0.5;
      out.reverse_transitions.push_back(prev_v + frac * (v - prev_v));
      out.monotonic = false;
      level -= 1.0;
    }
    prev_mean = mean;
    prev_v = v;
  }
  return out;
}

double measure_transition_servo(const AdcTransferFn& adc, std::uint32_t target_code,
                                double v_lo, double v_hi, int votes,
                                int iterations) {
  if (v_hi <= v_lo || votes < 1 || iterations < 1) {
    throw std::invalid_argument("measure_transition_servo: bad parameters");
  }
  const auto at_or_above = [&](double v) {
    int hits = 0;
    for (int k = 0; k < votes; ++k) {
      if (adc(v) >= target_code) ++hits;
    }
    return hits * 2 >= votes;
  };
  double lo = v_lo, hi = v_hi;
  for (int it = 0; it < iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (at_or_above(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

core::Outcome AdcMetrics::outcome(const MetricsLimits& limits) const {
  std::string fails;
  const auto check = [&](const char* name, double v, double limit) {
    if (std::abs(v) > limit) {
      if (!fails.empty()) fails += ", ";
      fails += name;
      fails += "=" + std::to_string(v) + " (limit " + std::to_string(limit) + ")";
    }
  };
  check("offset_lsb", offset_lsb, limits.max_abs_offset_lsb);
  check("gain_error_lsb", gain_error_lsb, limits.max_abs_gain_error_lsb);
  check("max_abs_dnl", max_abs_dnl, limits.max_abs_dnl_lsb);
  check("max_abs_inl", max_abs_inl, limits.max_abs_inl_lsb);
  if (fails.empty()) return core::Outcome::ok("all spec metrics within limits");
  return core::Outcome::fail("out of spec: " + fails);
}

void AdcMetrics::to_json(core::JsonWriter& w, bool include_curves) const {
  w.begin_object();
  core::write_report_envelope(w, "adc_metrics");
  w.member("lsb_ideal", lsb_ideal)
      .member("lsb_measured", lsb_measured)
      .member("offset_lsb", offset_lsb)
      .member("gain_error_lsb", gain_error_lsb)
      .member("max_abs_dnl", max_abs_dnl)
      .member("max_abs_inl", max_abs_inl);
  if (include_curves) {
    w.key("dnl_lsb").begin_array();
    for (double v : dnl_lsb) w.value(v);
    w.end_array();
    w.key("inl_lsb").begin_array();
    for (double v : inl_lsb) w.value(v);
    w.end_array();
  }
  w.end_object();
}

AdcMetrics compute_metrics(const TransitionLevels& t, double lsb_ideal,
                           double ideal_first_transition_v) {
  if (lsb_ideal <= 0) throw std::invalid_argument("compute_metrics: lsb_ideal must be > 0");
  if (t.transitions.size() < 3) {
    throw std::invalid_argument("compute_metrics: need at least 3 transitions");
  }
  AdcMetrics m;
  m.lsb_ideal = lsb_ideal;
  const auto& tr = t.transitions;
  const std::size_t n = tr.size();
  const double span = tr.back() - tr.front();
  m.lsb_measured = span / static_cast<double>(n - 1);
  m.offset_lsb = (tr.front() - ideal_first_transition_v) / lsb_ideal;
  m.gain_error_lsb =
      (m.lsb_measured - lsb_ideal) * static_cast<double>(n - 1) / lsb_ideal;

  m.dnl_lsb.resize(n - 1);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    m.dnl_lsb[k] = (tr[k + 1] - tr[k]) / m.lsb_measured - 1.0;
    m.max_abs_dnl = std::max(m.max_abs_dnl, std::abs(m.dnl_lsb[k]));
  }
  m.inl_lsb.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ideal = tr.front() + static_cast<double>(k) * m.lsb_measured;
    m.inl_lsb[k] = (tr[k] - ideal) / m.lsb_measured;
    m.max_abs_inl = std::max(m.max_abs_inl, std::abs(m.inl_lsb[k]));
  }
  return m;
}

}  // namespace msbist::adc
