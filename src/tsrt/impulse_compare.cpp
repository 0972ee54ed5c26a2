#include "tsrt/impulse_compare.h"

#include <cmath>
#include <stdexcept>

#include "dsp/matrix.h"

namespace msbist::tsrt {

std::vector<double> ArxFit::impulse(std::size_t n) const {
  std::vector<double> h(n, 0.0);
  if (n > 1) h[1] = b;
  for (std::size_t k = 2; k < n; ++k) h[k] = a * h[k - 1];
  return h;
}

ArxFit fit_arx(const std::vector<double>& vin, const std::vector<double>& vout) {
  if (vin.size() != vout.size() || vin.size() < 8) {
    throw std::invalid_argument("fit_arx: need matched sequences of >= 8 samples");
  }
  // Normal equations for [a b c] minimizing
  //   sum_n (vout[n+1] - a vout[n] - b vin[n] - c)^2.
  const std::size_t n = vin.size() - 1;
  dsp::Matrix ata(3, 3);
  std::vector<double> aty(3, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const double row[3] = {vout[k], vin[k], 1.0};
    const double y = vout[k + 1];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        ata(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +=
            row[i] * row[j];
      }
      aty[static_cast<std::size_t>(i)] += row[i] * y;
    }
  }
  // Regularize very slightly: a constant input makes the system rank
  // deficient (vin column collinear with the constant column).
  for (std::size_t i = 0; i < 3; ++i) ata(i, i) += 1e-12;
  const std::vector<double> coef = dsp::solve(ata, aty);

  ArxFit fit;
  fit.a = coef[0];
  fit.b = coef[1];
  fit.c = coef[2];
  double ss = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double e = vout[k + 1] - fit.a * vout[k] - fit.b * vin[k] - fit.c;
    ss += e * e;
  }
  fit.residual_rms = std::sqrt(ss / static_cast<double>(n));
  return fit;
}

double impulse_detection_percent(const ArxFit& reference, const ArxFit& faulty,
                                 std::size_t impulse_samples,
                                 const DetectorOptions& opts) {
  return detection_percent(reference.impulse(impulse_samples),
                           faulty.impulse(impulse_samples), opts);
}

ArxFit fit_sc_cycles(const std::vector<double>& stimulus,
                     const std::vector<double>& response, double dt,
                     double cycle_time, double mid_rail) {
  std::vector<double> u = sample_per_cycle(stimulus, dt, cycle_time);
  std::vector<double> y = sample_per_cycle(response, dt, cycle_time);
  for (double& v : u) v -= mid_rail;
  for (double& v : y) v -= mid_rail;
  // Align: the value of u during cycle n+1 drives y[n+1], so shift u left
  // by one cycle relative to y.
  if (u.size() < 2) throw std::invalid_argument("fit_sc_cycles: too few cycles");
  u.erase(u.begin());
  y.pop_back();
  return fit_arx(u, y);
}

std::vector<double> sample_per_cycle(const std::vector<double>& waveform, double dt,
                                     double cycle_time) {
  if (dt <= 0 || cycle_time <= dt) {
    throw std::invalid_argument("sample_per_cycle: need dt > 0 and cycle > dt");
  }
  const auto per_cycle = static_cast<std::size_t>(std::llround(cycle_time / dt));
  std::vector<double> out;
  // Sample one step before each cycle boundary: the settled end of phase 2.
  for (std::size_t k = per_cycle; k <= waveform.size(); k += per_cycle) {
    out.push_back(waveform[k - 1]);
  }
  return out;
}

}  // namespace msbist::tsrt
