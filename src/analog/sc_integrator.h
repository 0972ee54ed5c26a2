// Switched-capacitor integrator macro.
//
// The heart of the dual-slope ADC and of the paper's example circuits 2
// and 3. Two views:
//  * ScIntegratorModel — discrete-time behavioural model implementing the
//    paper's design equation Vout(z)/Vin(z) = z^-1 / (k (1 - z^-1)) with
//    k = Cf/Cs = 6.8, plus the non-idealities (finite op-amp gain leak,
//    charge-injection offset, capacitor-ratio error) that produce the
//    ADC's INL/DNL signature.
//  * build_sc_integrator — transistor/switch-level netlist: an OP1 op-amp
//    with input sampling capacitor Cs, integration capacitor Cf, and four
//    switches driven by two non-overlapping clocks (phase 1: sample input
//    onto Cs; phase 2: dump Cs's charge into Cf). 15 transistors total:
//    13 in OP1 plus one transmission-gate device per clock phase
//    (the paper's circuit 3).
#pragma once

#include <algorithm>
#include <cstddef>

#include "analog/macro.h"
#include "analog/opamp.h"
#include "circuit/netlist.h"
#include "circuit/waveform.h"

namespace msbist::analog {

struct ScIntegratorParams {
  double cap_ratio = 6.8;      ///< k = Cf / Cs (the paper's value)
  double leak = 0.0;           ///< per-cycle leak: vout *= (1 - leak)
  double offset_per_cycle = 0.0;  ///< charge-injection offset added per cycle [V]
  double ratio_error = 0.0;    ///< relative error on 1/k (both phases)
  /// Extra relative gain applied only to inverted (run-down) cycles —
  /// models asymmetric switch charge injection between the input and
  /// reference paths. In a dual-slope converter the symmetric ratio_error
  /// cancels; this asymmetry is what surfaces as ADC gain error.
  double invert_gain_mismatch = 0.0;
  double vout_min = 0.0;       ///< op-amp saturation limits
  double vout_max = 5.0;
  /// Second-order capacitor nonlinearity: the effective step gains an
  /// extra factor (1 + nonlinearity * vout). A dual-slope conversion
  /// cancels this to first order (both slopes traverse the same voltage
  /// range), which the unit tests verify.
  double nonlinearity = 0.0;
  /// Input-path nonlinearity: the sampled charge gains a factor
  /// (1 + input_nonlinearity * vin) — MOS sampling-switch on-resistance
  /// varies with the input level, so settling is signal-dependent. This
  /// does NOT cancel in a dual-slope conversion and is the INL source.
  double input_nonlinearity = 0.0;

  ScIntegratorParams varied(ProcessVariation& pv) const;
};

/// Discrete-time behavioural SC integrator; one update() per clock cycle.
class ScIntegratorModel {
 public:
  explicit ScIntegratorModel(ScIntegratorParams p);

  void reset(double vout = 0.0);

  /// The terms of one cycle that the input sample and its polarity fix.
  struct Drive {
    double step_gain;   ///< (1/k)(1 + ratio_error) * vin
    double input_gain;  ///< 1 + input_nonlinearity * vin
    bool invert;
  };

  /// One switched-capacitor cycle with input sample vin (the sample taken
  /// in the previous phase, matching the z^-1 in the design equation).
  /// Positive direction integrates up; pass invert=true for the dual-slope
  /// run-down phase (switch control flips the sampled polarity).
  double update(double vin, bool invert = false) {
    vout_ = next_output(params_, drive(params_, vin, invert), vout_);
    return vout_;
  }

  /// drive() and next_output() are the single definition of a cycle,
  /// shared by update() and the dual-slope ADC's lane-batched conversion
  /// kernel, which computes each lane's drive once per phase and keeps
  /// one output per lane. Inline: next_output runs once per ADC clock,
  /// millions of times per production batch.
  static Drive drive(const ScIntegratorParams& p, double vin, bool invert) {
    const double gain = (1.0 / p.cap_ratio) * (1.0 + p.ratio_error);
    return {gain * vin, 1.0 + p.input_nonlinearity * vin, invert};
  }
  static double next_output(const ScIntegratorParams& p, const Drive& d,
                            double vout) {
    // The nonlinearity models capacitor voltage-coefficient effects: the
    // per-cycle step depends weakly on the present output level.
    double step = d.step_gain * (1.0 + p.nonlinearity * vout) * d.input_gain;
    if (d.invert) step = -step * (1.0 + p.invert_gain_mismatch);
    const double next = vout * (1.0 - p.leak) + step + p.offset_per_cycle;
    return std::clamp(next, p.vout_min, p.vout_max);
  }

  double output() const { return vout_; }
  const ScIntegratorParams& params() const { return params_; }

 private:
  ScIntegratorParams params_;
  double vout_ = 0.0;
};

/// Nodes of the switch-level SC integrator.
struct ScIntegratorNodes {
  std::string input;       ///< signal input
  std::string sample_top;  ///< Cs top plate (switch side)
  std::string sum;         ///< op-amp virtual-ground summing node
  std::string output;      ///< integrator output (op-amp out)
  Op1Nodes opamp;          ///< embedded OP1 node map
};

struct ScIntegratorBuildOptions {
  double cs = 1e-12;       ///< sampling capacitor [F]
  double cf = 6.8e-12;     ///< integration capacitor [F] (k = 6.8)
  double clock_period = 10e-6;  ///< full two-phase cycle (paper: 5 us phases)
  double v_ref_mid = 2.5;  ///< analogue mid-rail reference for the + input
  double r_on = 2e3;       ///< switch on-resistance
  /// Large resistor across the integration capacitor. Provides the DC
  /// feedback path that defines the op-amp's operating point (the role a
  /// periodic reset switch plays on silicon); it leaks the integrator
  /// with time constant r * cf (6.8 ms at the defaults).
  double dc_feedback_r = 1e9;
  std::string prefix;
  Op1Options opamp;
};

/// Build the switch-level SC integrator (paper circuit 3) into a netlist.
/// The input node must then be driven by the caller (voltage source).
ScIntegratorNodes build_sc_integrator(circuit::Netlist& netlist,
                                      const ScIntegratorBuildOptions& opts = {});

}  // namespace msbist::analog
