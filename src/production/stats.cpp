#include "production/stats.h"

#include <algorithm>
#include <cmath>

namespace msbist::production {

void ParamStats::to_json(core::JsonWriter& w) const {
  w.begin_object()
      .member("count", static_cast<std::uint64_t>(count))
      .member("mean", mean)
      .member("sigma", sigma)
      .member("min", min)
      .member("max", max)
      .member("p05", p05)
      .member("p50", p50)
      .member("p95", p95)
      .end_object();
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

ParamStats compute_stats(std::vector<double> values) {
  ParamStats s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (double v : values) sq += (v - s.mean) * (v - s.mean);
    s.sigma = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  s.min = values.front();
  s.max = values.back();
  s.p05 = percentile_sorted(values, 0.05);
  s.p50 = percentile_sorted(values, 0.50);
  s.p95 = percentile_sorted(values, 0.95);
  return s;
}

}  // namespace msbist::production
