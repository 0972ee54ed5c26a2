// Dual-slope ADC macro (the paper's device under test).
//
// Gate-array dual-slope converter of ~250 gates / ~1000 transistors
// assembled from the library sub-macros exactly as Figure 1 shows:
// switched-capacitor integrator -> comparator -> control logic + counter
// -> output latch.
//
// Timing calibrated to the paper:
//   * 100 kHz maximum clock (10 us per count)
//   * 10 mV input per output-code step
//   * integrate phase 250 counts (2.5 ms), de-integration up to 260 counts
//     (2.6 ms) plus pedestal -> conversion always under the 5.6 ms spec
//   * integrator fall time = (Vref - Vin) * 1 ms/V + 0.1 ms, reproducing
//     the paper's step-test table (2.6, 2.2, 1.9, 1.2, 0.8, 0.1 ms)
//
// The output code counts the de-integration clocks, so the raw code
// DECREASES as Vin rises (code = 260 - Vin/10 mV); the characterization
// bench maps it to the paper's "input code equivalent" axis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>

#include "analog/comparator.h"
#include "analog/macro.h"
#include "analog/sc_integrator.h"
#include "digital/counter.h"
#include "digital/fsm.h"
#include "digital/latch.h"

namespace msbist::adc {

/// Datapath widths of the Figure-1 converter. 10 bits comfortably hold the
/// worst-case code (timeout_counts = 400 < 1024). Latch mask bits at or
/// above kAdcLatchBits are no-ops. A counter stuck bit at or above
/// kAdcCounterBits is not: digital::BinaryCounter rejects it, so every
/// conversion of such a config throws std::invalid_argument. Only the
/// production spot check's static collapse treats it as a no-op, because
/// it never simulates that clone.
inline constexpr std::uint32_t kAdcCounterBits = 10;
inline constexpr std::uint32_t kAdcLatchBits = 10;

/// Conversions DualSlopeAdc::convert_n marches together in one pass of
/// its kernel, as eight two-double vectors; a block of one or two
/// conversions runs a single vector. DESIGN.md §10 records the
/// lane-width sweep behind the value.
inline constexpr std::size_t kConversionLanes = 16;

struct DualSlopeAdcConfig {
  double vref = 2.5;                ///< full-scale reference [V]
  double clock_hz = 100e3;          ///< conversion clock (paper max spec)
  std::uint32_t integrate_counts = 250;
  std::uint32_t timeout_counts = 400;  ///< de-integration abort limit
  double comparator_threshold = 0.7;   ///< integrator baseline Vth [V]
  double pedestal_v = 0.1;             ///< auto-zero pedestal above Vth [V]
  /// Comparator input-referred noise sampled once per conversion [V];
  /// the source of the code-to-code DNL wiggle in Figure 2.
  double comparator_noise_v = 2e-3;
  std::uint64_t noise_seed = 1;

  analog::ScIntegratorParams integrator;
  analog::ComparatorParams comparator;
  digital::CounterFaults counter_faults;
  digital::LatchFaults latch_faults;
  digital::ControlFaults control_faults;

  /// The paper's characterized device: non-idealities tuned so the full
  /// specification test lands near the published numbers (gain +/-0.5 LSB,
  /// offset < 0.2 LSB, INL max ~1.3 LSB, DNL max ~1.2 LSB).
  static DualSlopeAdcConfig characterized();

  /// An ideal converter (no noise, no nonlinearity) for golden references.
  static DualSlopeAdcConfig ideal();

  /// Die-to-die variation applied to the analogue sub-macros.
  DualSlopeAdcConfig varied(analog::ProcessVariation& pv) const;
};

/// One conversion's observable outcome.
struct ConversionResult {
  std::uint32_t code = 0;          ///< latched de-integration count
  double conversion_time_s = 0.0;  ///< start -> latch strobe
  double fall_time_s = 0.0;        ///< de-integration duration
  double integrator_peak_v = 0.0;  ///< maximum integrator voltage seen
  bool timed_out = false;
  bool completed = false;          ///< false when the control FSM is stuck
};

class DualSlopeAdc {
 public:
  explicit DualSlopeAdc(DualSlopeAdcConfig cfg);

  /// Run one full conversion of the given input voltage (convert_n of
  /// one input).
  ConversionResult convert(double vin);

  /// Convert vin[0..n) into out[0..n): the results, and the noise-stream
  /// position afterwards, are bit-identical to n successive convert()
  /// calls. Each conversion's comparator noise is drawn in call order,
  /// then kConversionLanes conversions march together: the control
  /// sequence (auto-zero, the fixed integrate count, a frozen-phase
  /// fault) is the same for every lane of one config, so it runs once per
  /// block, and only the comparator trip or timeout that ends
  /// de-integration is tracked per lane. Throws std::invalid_argument for
  /// an invalid config before drawing any noise, with the message the
  /// offending sub-macro's constructor gives.
  void convert_n(const double* vin, std::size_t n, ConversionResult* out);

  /// Convenience: just the output code.
  std::uint32_t code_for(double vin) { return convert(vin).code; }

  /// Ideal LSB size: vref / integrate_counts (10 mV in the paper setup).
  double lsb_volts() const;

  /// Ideal (noise-free, fault-free) code for an input, per the nominal
  /// transfer code = pedestal_counts + integrate_counts (1 - vin/vref).
  std::uint32_t ideal_code(double vin) const;

  /// Counts contributed by the pedestal (the "+0.1 ms" in the fall time).
  std::uint32_t pedestal_counts() const;

  /// Highest code the nominal transfer can produce (vin = 0).
  std::uint32_t full_scale_code() const;

  const DualSlopeAdcConfig& config() const { return cfg_; }

  /// The conversion-noise stream; its position after a run of
  /// conversions is part of the converter's observable state.
  const std::mt19937_64& noise_stream() const { return noise_rng_; }

 private:
  DualSlopeAdcConfig cfg_;
  std::mt19937_64 noise_rng_;
};

}  // namespace msbist::adc
