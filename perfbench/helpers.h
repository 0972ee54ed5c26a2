// Statistics and /proc parsing used by the benchmark harness. Kept free
// of msbist dependencies so helpers_test.cpp covers them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile of an ascending sample (p in [0, 1]).
inline double quantile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

inline double quantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, p);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Samples strictly above the p-quantile's rank in a sample of n.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::floor(p * static_cast<double>(n - 1)));
  return n - 1 - rank;
}

/// The tail to report for n samples: the highest of p99.9, p99, p95, p90
/// and p50 with at least ten samples beyond it, or nullopt when even the
/// median has fewer than ten above it.
inline std::optional<double> tail_percentile(std::size_t n) {
  for (double p : {0.999, 0.99, 0.95, 0.90, 0.50}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return std::nullopt;
}

/// VmHWM (peak resident set) in kB from the text of /proc/<pid>/status.
inline std::optional<std::uint64_t> parse_status_kb(std::string_view status,
                                                    std::string_view field) {
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t eol = status.find('\n', pos);
    if (eol == std::string_view::npos) eol = status.size();
    const std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= field.size() || line.substr(0, field.size()) != field ||
        line[field.size()] != ':') {
      continue;
    }
    std::istringstream in{std::string(line.substr(field.size() + 1))};
    std::uint64_t kb = 0;
    std::string unit;
    if (in >> kb >> unit && unit == "kB") return kb;
    return std::nullopt;
  }
  return std::nullopt;
}

inline std::optional<std::uint64_t> parse_vmhwm_kb(std::string_view status) {
  return parse_status_kb(status, "VmHWM");
}

/// utime + stime in clock ticks from the text of /proc/<pid>/stat. The
/// command name (field 2) is parenthesised and may hold spaces or ')',
/// so fields are counted from the last ')'.
inline std::optional<std::uint64_t> parse_stat_cpu_ticks(std::string_view stat) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  std::istringstream in{std::string(stat.substr(close + 1))};
  std::string field;
  // After ')': field 3 (state) ... field 14 (utime), field 15 (stime).
  for (int i = 3; i < 14; ++i) {
    if (!(in >> field)) return std::nullopt;
  }
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  if (!(in >> utime >> stime)) return std::nullopt;
  return utime + stime;
}

/// Metric names: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or
/// a digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
