#include "circuit/waveform.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace msbist::circuit {

WaveformPtr Waveform::with_values(const double*) const {
  throw std::logic_error("Waveform::with_values: the waveform has no value slots");
}

PwlWave::PwlWave(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  if (points_.empty()) throw std::invalid_argument("PwlWave: needs at least one point");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first <= points_[i - 1].first) {
      throw std::invalid_argument("PwlWave: times must be strictly increasing");
    }
  }
}

double PwlWave::value(double t) const {
  if (t <= points_.front().first) return points_.front().second;
  if (t >= points_.back().first) return points_.back().second;
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double x, const std::pair<double, double>& p) { return x < p.first; });
  const auto hi = it;
  const auto lo = it - 1;
  const double frac = (t - lo->first) / (hi->first - lo->first);
  return lo->second + frac * (hi->second - lo->second);
}

PulseWave::PulseWave(double low, double high, double delay, double rise, double fall,
                     double width, double period)
    : low_(low), high_(high), delay_(delay), rise_(rise), fall_(fall),
      width_(width), period_(period) {
  if (period_ <= 0 || rise_ < 0 || fall_ < 0 || width_ < 0) {
    throw std::invalid_argument("PulseWave: invalid timing parameters");
  }
  if (rise_ + width_ + fall_ > period_) {
    throw std::invalid_argument("PulseWave: rise+width+fall exceeds period");
  }
}

double PulseWave::value(double t) const {
  if (t < delay_) return low_;
  const double tp = std::fmod(t - delay_, period_);
  if (tp < rise_) {
    return rise_ == 0.0 ? high_ : low_ + (high_ - low_) * tp / rise_;
  }
  if (tp < rise_ + width_) return high_;
  if (tp < rise_ + width_ + fall_) {
    return fall_ == 0.0 ? low_ : high_ - (high_ - low_) * (tp - rise_ - width_) / fall_;
  }
  return low_;
}

SineWave::SineWave(double offset, double amplitude, double frequency_hz, double delay)
    : offset_(offset), amplitude_(amplitude), freq_(frequency_hz), delay_(delay) {}

double SineWave::value(double t) const {
  return offset_ + amplitude_ * std::sin(2.0 * std::numbers::pi * freq_ * (t - delay_));
}

WaveformPtr SineWave::with_values(const double* values) const {
  return std::make_shared<SineWave>(values[0], values[1], values[2], values[3]);
}

SampledWave::SampledWave(std::vector<double> samples, double dt)
    : samples_(std::move(samples)), dt_(dt) {
  if (samples_.empty()) throw std::invalid_argument("SampledWave: empty samples");
  if (dt_ <= 0) throw std::invalid_argument("SampledWave: dt must be > 0");
}

double SampledWave::value(double t) const {
  if (t <= 0) return samples_.front();
  const auto k = static_cast<std::size_t>(t / dt_);
  if (k >= samples_.size()) return samples_.back();
  return samples_[k];
}

ClockWave::ClockWave(double period, double high_time, double phase_offset,
                     double low_level, double high_level)
    : period_(period), high_time_(high_time), phase_offset_(phase_offset),
      low_(low_level), high_(high_level) {
  if (period_ <= 0 || high_time_ < 0 || high_time_ > period_) {
    throw std::invalid_argument("ClockWave: invalid timing");
  }
}

bool ClockWave::is_high(double t) const {
  double tp = std::fmod(t - phase_offset_, period_);
  if (tp < 0) tp += period_;
  return tp < high_time_;
}

double ClockWave::value(double t) const { return is_high(t) ? high_ : low_; }

}  // namespace msbist::circuit
