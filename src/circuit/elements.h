// Linear and switching circuit elements.
//
// Each element implements the Stamper protocol from netlist.h. Dynamic
// elements (capacitors) carry their own companion-model state between
// transient steps.
#pragma once

#include "circuit/netlist.h"
#include "circuit/waveform.h"

namespace msbist::circuit {

/// Ideal resistor.
class Resistor final : public Element {
 public:
  Resistor(NodeId a, NodeId b, double ohms);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  std::vector<NodeId> terminals() const override { return {a_, b_}; }
  std::vector<std::pair<int, int>> dc_paths() const override { return {{0, 1}}; }
  bool time_invariant_stamp() const override { return true; }
  /// One slot: the resistance.
  std::size_t value_count() const override { return 1; }
  void set_values(const double* values) override { set_resistance(values[0]); }
  double resistance() const { return ohms_; }
  void set_resistance(double ohms);
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }

 private:
  NodeId a_, b_;
  double ohms_;
};

/// Ideal capacitor. Open in DC; backward-Euler or trapezoidal companion
/// model in transient. An optional initial condition is applied when the
/// transient is started with use_initial_conditions.
class Capacitor final : public Element {
 public:
  Capacitor(NodeId a, NodeId b, double farads);
  void set_initial_voltage(double v);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  std::vector<NodeId> terminals() const override { return {a_, b_}; }
  /// One slot: the capacitance.
  std::size_t value_count() const override { return 1; }
  void set_values(const double* values) override;
  /// The companion conductance C/dt (or 2C/dt) is fixed for a fixed-dt
  /// analysis; only the companion history current (an RHS term) varies.
  bool time_invariant_stamp() const override { return true; }
  void transient_begin(const std::vector<double>& solution, bool use_ic) override;
  void transient_accept(const std::vector<double>& solution,
                        const StampContext& ctx) override;
  bool has_transient_state() const override { return true; }
  void transient_checkpoint() override {
    saved_v_prev_ = v_prev_;
    saved_i_prev_ = i_prev_;
  }
  void transient_rollback() override {
    v_prev_ = saved_v_prev_;
    i_prev_ = saved_i_prev_;
  }
  double capacitance() const { return farads_; }
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }
  /// Capacitor voltage as of the last accepted step.
  double voltage() const { return v_prev_; }

 private:
  NodeId a_, b_;
  double farads_;
  bool has_ic_ = false;
  double ic_ = 0.0;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
  double saved_v_prev_ = 0.0;
  double saved_i_prev_ = 0.0;
};

/// Independent voltage source driven by a Waveform. Adds one branch row.
class VoltageSource final : public Element {
 public:
  VoltageSource(NodeId pos, NodeId neg, WaveformPtr wave);
  VoltageSource(NodeId pos, NodeId neg, double dc);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  std::vector<NodeId> terminals() const override { return {pos_, neg_}; }
  std::vector<std::pair<int, int>> dc_paths() const override { return {{0, 1}}; }
  int branch_count() const override { return 1; }
  /// Branch-row stamps are the constants +/-1; the drive level is RHS-only.
  bool time_invariant_stamp() const override { return true; }
  /// The waveform's slots (Waveform::value_count).
  std::size_t value_count() const override { return wave_->value_count(); }
  void set_values(const double* values) override {
    wave_ = wave_->with_values(values);
  }
  NodeId pos() const { return pos_; }
  NodeId neg() const { return neg_; }
  /// Branch current (positive flowing pos -> through source -> neg) in a
  /// given MNA solution vector.
  double current_in(const std::vector<double>& solution) const;
  double level(double t) const { return wave_->value(t); }
  /// Replace the drive with a constant level (used by DC sweeps).
  void set_dc(double v) { wave_ = std::make_shared<DcWave>(v); }
  void set_waveform(WaveformPtr w);

 private:
  NodeId pos_, neg_;
  WaveformPtr wave_;
};

/// Independent current source (positive current leaves pos, enters neg).
class CurrentSource final : public Element {
 public:
  CurrentSource(NodeId pos, NodeId neg, WaveformPtr wave);
  CurrentSource(NodeId pos, NodeId neg, double dc);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  std::vector<NodeId> terminals() const override { return {pos_, neg_}; }
  /// A current source writes no matrix entries at all.
  bool time_invariant_stamp() const override { return true; }
  /// Replace the drive with a constant level (used by DC sweeps).
  void set_dc(double v) { wave_ = std::make_shared<DcWave>(v); }

 private:
  NodeId pos_, neg_;
  WaveformPtr wave_;
};

/// Voltage-controlled voltage source: V(out+, out-) = gain * V(in+, in-).
/// Adds one branch row.
class Vcvs final : public Element {
 public:
  Vcvs(NodeId out_pos, NodeId out_neg, NodeId in_pos, NodeId in_neg, double gain);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  /// Terminal order: out+, out-, in+, in-. Only the driven output pair
  /// conducts; the input pair only senses.
  std::vector<NodeId> terminals() const override { return {op_, on_, ip_, in_}; }
  std::vector<std::pair<int, int>> dc_paths() const override { return {{0, 1}}; }
  int branch_count() const override { return 1; }
  bool time_invariant_stamp() const override { return true; }

 private:
  NodeId op_, on_, ip_, in_;
  double gain_;
};

/// Voltage-controlled current source: I(out+ -> out-) = gm * V(in+, in-).
class Vccs final : public Element {
 public:
  Vccs(NodeId out_pos, NodeId out_neg, NodeId in_pos, NodeId in_neg, double gm);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  /// Terminal order: out+, out-, in+, in-. A current output is not a DC
  /// path, so a Vccs provides none at all.
  std::vector<NodeId> terminals() const override { return {op_, on_, ip_, in_}; }
  bool time_invariant_stamp() const override { return true; }

 private:
  NodeId op_, on_, ip_, in_;
  double gm_;
};

/// Time-controlled switch (MOS transmission gate abstraction for the
/// switched-capacitor clocks): on-resistance when the clock is high,
/// off-resistance otherwise.
class TimedSwitch final : public Element {
 public:
  TimedSwitch(NodeId a, NodeId b, ClockWave clock, double r_on = 1e3,
              double r_off = 1e9);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  // Off-resistance is finite, so the switch conducts (weakly) in any state.
  std::vector<NodeId> terminals() const override { return {a_, b_}; }
  std::vector<std::pair<int, int>> dc_paths() const override { return {{0, 1}}; }
  bool is_on(double t) const { return clock_.is_high(t); }
  double r_on() const { return r_on_; }
  double r_off() const { return r_off_; }

 private:
  NodeId a_, b_;
  ClockWave clock_;
  double r_on_, r_off_;
};

/// Voltage-controlled switch: on when V(c+, c-) > threshold.
/// Nonlinear (its state depends on the iterate), resolved with a small
/// hysteresis-free threshold — adequate for the comparator-style uses here.
class VoltageSwitch final : public Element {
 public:
  VoltageSwitch(NodeId a, NodeId b, NodeId ctrl_pos, NodeId ctrl_neg,
                double threshold, double r_on = 1e3, double r_off = 1e9);
  void stamp(Stamper& s, const StampContext& ctx) const override;
  /// Terminal order: a, b, ctrl+, ctrl-. The control pair only senses.
  std::vector<NodeId> terminals() const override { return {a_, b_, cp_, cn_}; }
  std::vector<std::pair<int, int>> dc_paths() const override { return {{0, 1}}; }
  bool nonlinear() const override { return true; }
  double r_on() const { return r_on_; }
  double r_off() const { return r_off_; }

 private:
  NodeId a_, b_, cp_, cn_;
  double threshold_, r_on_, r_off_;
};

}  // namespace msbist::circuit
