// Voltage comparator macro (behavioural).
//
// The dual-slope ADC uses a comparator to detect the integrator's
// zero/threshold crossing; its offset and delay feed directly into the
// ADC's zero-offset and gain errors (paper, "Full testing of the ADC
// macro": "faults in the comparator submacro will contribute to the
// offset error and gain error").
#pragma once

#include <stdexcept>

#include "analog/macro.h"

namespace msbist::analog {

struct ComparatorParams {
  double offset_v = 0.0;       ///< input-referred offset [V]
  double hysteresis_v = 1e-3;  ///< total hysteresis width [V]
  double delay_s = 2e-6;       ///< propagation delay [s]
  double v_low = 0.0;          ///< logic-low output level [V]
  double v_high = 5.0;         ///< logic-high output level [V]

  ComparatorParams varied(ProcessVariation& pv) const;
};

/// The comparator's state between steps.
struct ComparatorState {
  bool out_high = false;       ///< committed (visible) output state
  bool pending_valid = false;  ///< an edge is in flight
  bool pending_state = false;
  double pending_timer = 0.0;
};

/// Clocked/continuous comparator with hysteresis and a transport delay
/// realized as a pending-edge timer. Call step() once per simulation step.
class ComparatorModel {
 public:
  explicit ComparatorModel(ComparatorParams p);

  void reset(bool output_high = false);

  /// Advance by dt with the given inputs; returns the (possibly delayed)
  /// output level.
  double step(double v_plus, double v_minus, double dt) {
    if (dt <= 0) throw std::invalid_argument("ComparatorModel::step: dt must be > 0");
    return decide(params_, state_, v_plus, v_minus, dt) ? params_.v_high
                                                        : params_.v_low;
  }

  /// The comparison decide() makes before its delay: whether the input
  /// clears the hysteresis threshold, given the committed output state.
  /// T is double with a bool state, or, in the dual-slope ADC's
  /// lane-batched conversion kernel (whose zero-delay comparators commit
  /// it at once), a two-double GCC/Clang vector with its lane mask.
  template <typename T, typename State>
  static auto raw_high(const ComparatorParams& p, State out_high, T v_plus,
                       T v_minus) {
    const T vid = v_plus - v_minus + p.offset_v;
    // Hysteresis around zero: the comparison target shifts away from the
    // current committed state, to -h/2 while high and +h/2 while low.
    const double half_hyst = 0.5 * p.hysteresis_v;
    const auto above_high_target = vid > -half_hyst;
    const auto above_low_target = vid > half_hyst;
    // out_high ? above_high_target : above_low_target, selected with & and
    // ^ so that a lane mask selects lane-wise without leaving the vector
    // unit (a ?: on an integer mask compiles to per-lane branches).
    return above_low_target ^ (out_high & (above_high_target ^ above_low_target));
  }

  /// The decision step() makes, on explicit state: returns the committed
  /// output state after dt (dt > 0). The single definition shared by
  /// step() and, for a comparator with a delay, the dual-slope ADC's
  /// lane-batched conversion kernel, which keeps one state per lane.
  /// Inline: runs once per simulation step, millions of times per
  /// production batch.
  static bool decide(const ComparatorParams& p, ComparatorState& s,
                     double v_plus, double v_minus, double dt) {
    const bool raw = raw_high(p, s.out_high, v_plus, v_minus);

    if (p.delay_s <= 0.0) {
      s.out_high = raw;
    } else if (raw != s.out_high) {
      if (!s.pending_valid || s.pending_state != raw) {
        s.pending_valid = true;
        s.pending_state = raw;
        s.pending_timer = p.delay_s;
      } else {
        s.pending_timer -= dt;
        if (s.pending_timer <= 0.0) {
          s.out_high = s.pending_state;
          s.pending_valid = false;
        }
      }
    } else {
      // Input went back before the delay elapsed: cancel the edge.
      s.pending_valid = false;
    }
    return s.out_high;
  }

  bool output_high() const { return state_.out_high; }
  const ComparatorParams& params() const { return params_; }

 private:
  ComparatorParams params_;
  ComparatorState state_;
};

}  // namespace msbist::analog
