#include "dsp/correlation.h"

#include "dsp/convolution.h"

namespace msbist::dsp {

std::vector<double> cross_correlate(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  if (x.empty() || y.empty()) return {};
  // R_xy(lag) = (x reversed) * y — convolution with the first operand
  // time-reversed gives correlation.
  std::vector<double> xr(x.rbegin(), x.rend());
  return convolve(xr, y);
}

}  // namespace msbist::dsp
