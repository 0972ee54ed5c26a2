// Time-domain source waveforms for the circuit simulator.
//
// Every independent source in a netlist is driven by a Waveform — a pure
// function of time. The SC clock generator of the paper's circuits is a
// pair of ClockWaves.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace msbist::circuit {

class Waveform;
using WaveformPtr = std::shared_ptr<const Waveform>;

/// A scalar signal as a function of time (seconds).
class Waveform {
 public:
  virtual ~Waveform() = default;
  virtual double value(double t) const = 0;
  /// Value slots a lockstep population varies die by die (see
  /// circuit::set_values); waveforms without slots keep their shape.
  virtual std::size_t value_count() const { return 0; }
  /// A copy of this waveform with its slots replaced by
  /// values[0 .. value_count()). Throws std::logic_error when the
  /// waveform has no slots.
  virtual WaveformPtr with_values(const double* values) const;
};

/// Constant level.
class DcWave final : public Waveform {
 public:
  explicit DcWave(double level) : level_(level) {}
  double value(double) const override { return level_; }

 private:
  double level_;
};

/// Piecewise-linear waveform through (t, v) breakpoints; holds the first
/// value before the first breakpoint and the last value after the last.
class PwlWave final : public Waveform {
 public:
  /// points must be nonempty with strictly increasing times.
  explicit PwlWave(std::vector<std::pair<double, double>> points);
  double value(double t) const override;

 private:
  std::vector<std::pair<double, double>> points_;
};

/// Periodic pulse train: low before delay; then each period rises to high
/// (linear over rise), holds for width, falls (linear over fall), rests low.
class PulseWave final : public Waveform {
 public:
  PulseWave(double low, double high, double delay, double rise, double fall,
            double width, double period);
  double value(double t) const override;

 private:
  double low_, high_, delay_, rise_, fall_, width_, period_;
};

/// Sine: offset + amplitude * sin(2 pi f (t - delay)).
class SineWave final : public Waveform {
 public:
  SineWave(double offset, double amplitude, double frequency_hz, double delay = 0.0);
  double value(double t) const override;
  /// Four slots: offset, amplitude, frequency, delay.
  std::size_t value_count() const override { return 4; }
  WaveformPtr with_values(const double* values) const override;

 private:
  double offset_, amplitude_, freq_, delay_;
};

/// Zero-order-hold playback of a uniformly sampled vector (sample k holds
/// over [k dt, (k+1) dt)); holds the last sample afterwards.
class SampledWave final : public Waveform {
 public:
  /// samples must be nonempty; dt > 0.
  SampledWave(std::vector<double> samples, double dt);
  double value(double t) const override;

 private:
  std::vector<double> samples_;
  double dt_;
};

/// Two-level clock for switched-capacitor phases: high during
/// [k*period + phase_offset, k*period + phase_offset + high_time).
/// Non-overlapping two-phase clocks are two ClockWaves with offsets 0 and
/// period/2 and high_time slightly under period/2.
class ClockWave final : public Waveform {
 public:
  ClockWave(double period, double high_time, double phase_offset = 0.0,
            double low_level = 0.0, double high_level = 5.0);
  double value(double t) const override;
  bool is_high(double t) const;

 private:
  double period_, high_time_, phase_offset_, low_, high_;
};

}  // namespace msbist::circuit
