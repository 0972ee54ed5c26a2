// Parametric distribution summaries for batch reports: the per-device
// spec metrics (offset, gain, INL/DNL, timing) reduced to
// mean/sigma/min/max and percentiles, the numbers a yield engineer reads
// off a fabrication lot.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/outcome.h"

namespace msbist::production {

struct ParamStats {
  std::size_t count = 0;
  double mean = 0.0;
  double sigma = 0.0;  ///< sample standard deviation (n-1); 0 when n < 2
  double min = 0.0;
  double max = 0.0;
  double p05 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;

  void to_json(core::JsonWriter& w) const;
};

/// q in [0, 1]; linear interpolation between order statistics on a
/// *sorted* sample (empty sample -> 0).
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Summarize a sample (copied and sorted internally; order-independent,
/// so batch aggregation is deterministic at any thread count).
ParamStats compute_stats(std::vector<double> values);

}  // namespace msbist::production
