#include "analog/comparator.h"

#include <stdexcept>

namespace msbist::analog {

ComparatorParams ComparatorParams::varied(ProcessVariation& pv) const {
  ComparatorParams p = *this;
  p.offset_v = pv.vary_abs(offset_v, 2e-3);
  p.delay_s = pv.vary(delay_s, 0.10);
  p.hysteresis_v = pv.vary(hysteresis_v, 0.10);
  return p;
}

ComparatorModel::ComparatorModel(ComparatorParams p) : params_(p) {
  if (params_.hysteresis_v < 0 || params_.delay_s < 0) {
    throw std::invalid_argument("ComparatorModel: hysteresis and delay must be >= 0");
  }
  if (params_.v_high <= params_.v_low) {
    throw std::invalid_argument("ComparatorModel: v_high must exceed v_low");
  }
}

void ComparatorModel::reset(bool output_high) {
  state_.out_high = output_high;
  state_.pending_valid = false;
  state_.pending_timer = 0.0;
}

}  // namespace msbist::analog
