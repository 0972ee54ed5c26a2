#include "circuit/elements.h"

#include <stdexcept>

namespace msbist::circuit {

Resistor::Resistor(NodeId a, NodeId b, double ohms) : a_(a), b_(b), ohms_(ohms) {
  if (ohms_ <= 0) throw std::invalid_argument("Resistor: resistance must be > 0");
}

void Resistor::set_resistance(double ohms) {
  if (ohms <= 0) throw std::invalid_argument("Resistor: resistance must be > 0");
  ohms_ = ohms;
}

void Resistor::stamp(Stamper& s, const StampContext&) const {
  s.conductance(a_, b_, 1.0 / ohms_);
}

Capacitor::Capacitor(NodeId a, NodeId b, double farads) : a_(a), b_(b), farads_(farads) {
  if (farads_ <= 0) throw std::invalid_argument("Capacitor: capacitance must be > 0");
}

void Capacitor::set_values(const double* values) {
  if (values[0] <= 0) {
    throw std::invalid_argument("Capacitor: capacitance must be > 0");
  }
  farads_ = values[0];
}

void Capacitor::set_initial_voltage(double v) {
  has_ic_ = true;
  ic_ = v;
}

void Capacitor::stamp(Stamper& s, const StampContext& ctx) const {
  if (ctx.mode == StampContext::Mode::kDc) return;  // open in DC
  // Companion model: conductance geq in parallel with current source ieq.
  //   BE:   i = C/h (v - v_prev)              -> geq = C/h,  ieq = -C/h v_prev
  //   Trap: i = 2C/h (v - v_prev) - i_prev    -> geq = 2C/h, ieq = -2C/h v_prev - i_prev
  double geq = 0.0, ieq = 0.0;
  if (ctx.method == Integration::kBackwardEuler) {
    geq = farads_ / ctx.dt;
    ieq = -geq * v_prev_;
  } else {
    geq = 2.0 * farads_ / ctx.dt;
    ieq = -geq * v_prev_ - i_prev_;
  }
  s.conductance(a_, b_, geq);
  // ieq is the equivalent current flowing a -> b inside the companion.
  s.current(a_, b_, ieq);
}

void Capacitor::transient_begin(const std::vector<double>& solution, bool use_ic) {
  if (use_ic) {
    // "Use initial conditions": skip the operating point; capacitors start
    // at their declared IC (0 V when none was given).
    v_prev_ = has_ic_ ? ic_ : 0.0;
  } else {
    const double va = a_ >= 0 ? solution[static_cast<std::size_t>(a_)] : 0.0;
    const double vb = b_ >= 0 ? solution[static_cast<std::size_t>(b_)] : 0.0;
    v_prev_ = va - vb;
  }
  i_prev_ = 0.0;
}

void Capacitor::transient_accept(const std::vector<double>& solution,
                                 const StampContext& ctx) {
  const double va = a_ >= 0 ? solution[static_cast<std::size_t>(a_)] : 0.0;
  const double vb = b_ >= 0 ? solution[static_cast<std::size_t>(b_)] : 0.0;
  const double v = va - vb;
  if (ctx.method == Integration::kBackwardEuler) {
    i_prev_ = farads_ / ctx.dt * (v - v_prev_);
  } else {
    i_prev_ = 2.0 * farads_ / ctx.dt * (v - v_prev_) - i_prev_;
  }
  v_prev_ = v;
}

VoltageSource::VoltageSource(NodeId pos, NodeId neg, WaveformPtr wave)
    : pos_(pos), neg_(neg), wave_(std::move(wave)) {
  if (!wave_) throw std::invalid_argument("VoltageSource: null waveform");
}

VoltageSource::VoltageSource(NodeId pos, NodeId neg, double dc)
    : VoltageSource(pos, neg, std::make_shared<DcWave>(dc)) {}

void VoltageSource::stamp(Stamper& s, const StampContext& ctx) const {
  const int br = branch_base();
  if (pos_ >= 0) {
    s.add(pos_, br, 1.0);
    s.add(br, pos_, 1.0);
  }
  if (neg_ >= 0) {
    s.add(neg_, br, -1.0);
    s.add(br, neg_, -1.0);
  }
  s.add_rhs(br, ctx.source_scale * wave_->value(ctx.t));
}

double VoltageSource::current_in(const std::vector<double>& solution) const {
  return solution[static_cast<std::size_t>(branch_base())];
}

void VoltageSource::set_waveform(WaveformPtr w) {
  if (!w) throw std::invalid_argument("VoltageSource: null waveform");
  wave_ = std::move(w);
}

CurrentSource::CurrentSource(NodeId pos, NodeId neg, WaveformPtr wave)
    : pos_(pos), neg_(neg), wave_(std::move(wave)) {
  if (!wave_) throw std::invalid_argument("CurrentSource: null waveform");
}

CurrentSource::CurrentSource(NodeId pos, NodeId neg, double dc)
    : CurrentSource(pos, neg, std::make_shared<DcWave>(dc)) {}

void CurrentSource::stamp(Stamper& s, const StampContext& ctx) const {
  s.current(pos_, neg_, ctx.source_scale * wave_->value(ctx.t));
}

Vcvs::Vcvs(NodeId out_pos, NodeId out_neg, NodeId in_pos, NodeId in_neg, double gain)
    : op_(out_pos), on_(out_neg), ip_(in_pos), in_(in_neg), gain_(gain) {}

void Vcvs::stamp(Stamper& s, const StampContext&) const {
  const int br = branch_base();
  if (op_ >= 0) {
    s.add(op_, br, 1.0);
    s.add(br, op_, 1.0);
  }
  if (on_ >= 0) {
    s.add(on_, br, -1.0);
    s.add(br, on_, -1.0);
  }
  // Constraint: v(op)-v(on) - gain*(v(ip)-v(in)) = 0.
  if (ip_ >= 0) s.add(br, ip_, -gain_);
  if (in_ >= 0) s.add(br, in_, gain_);
}

Vccs::Vccs(NodeId out_pos, NodeId out_neg, NodeId in_pos, NodeId in_neg, double gm)
    : op_(out_pos), on_(out_neg), ip_(in_pos), in_(in_neg), gm_(gm) {}

void Vccs::stamp(Stamper& s, const StampContext&) const {
  if (op_ >= 0) {
    if (ip_ >= 0) s.add(op_, ip_, gm_);
    if (in_ >= 0) s.add(op_, in_, -gm_);
  }
  if (on_ >= 0) {
    if (ip_ >= 0) s.add(on_, ip_, -gm_);
    if (in_ >= 0) s.add(on_, in_, gm_);
  }
}

TimedSwitch::TimedSwitch(NodeId a, NodeId b, ClockWave clock, double r_on, double r_off)
    : a_(a), b_(b), clock_(clock), r_on_(r_on), r_off_(r_off) {
  if (r_on_ <= 0 || r_off_ <= r_on_) {
    throw std::invalid_argument("TimedSwitch: need 0 < r_on < r_off");
  }
}

void TimedSwitch::stamp(Stamper& s, const StampContext& ctx) const {
  const double r = clock_.is_high(ctx.t) ? r_on_ : r_off_;
  s.conductance(a_, b_, 1.0 / r);
}

VoltageSwitch::VoltageSwitch(NodeId a, NodeId b, NodeId ctrl_pos, NodeId ctrl_neg,
                             double threshold, double r_on, double r_off)
    : a_(a), b_(b), cp_(ctrl_pos), cn_(ctrl_neg), threshold_(threshold),
      r_on_(r_on), r_off_(r_off) {
  if (r_on_ <= 0 || r_off_ <= r_on_) {
    throw std::invalid_argument("VoltageSwitch: need 0 < r_on < r_off");
  }
}

void VoltageSwitch::stamp(Stamper& s, const StampContext& ctx) const {
  const double vc = Stamper::voltage(ctx, cp_) - Stamper::voltage(ctx, cn_);
  const double r = vc > threshold_ ? r_on_ : r_off_;
  s.conductance(a_, b_, 1.0 / r);
}

}  // namespace msbist::circuit
