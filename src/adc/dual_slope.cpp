#include "adc/dual_slope.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msbist::adc {

DualSlopeAdcConfig DualSlopeAdcConfig::ideal() {
  DualSlopeAdcConfig cfg;
  cfg.comparator_noise_v = 0.0;
  cfg.integrator.cap_ratio = static_cast<double>(cfg.integrate_counts);
  cfg.integrator.vout_min = 0.0;
  cfg.integrator.vout_max = 5.0;
  cfg.comparator.delay_s = 0.0;
  cfg.comparator.hysteresis_v = 0.0;
  cfg.comparator.offset_v = 0.0;
  return cfg;
}

DualSlopeAdcConfig DualSlopeAdcConfig::characterized() {
  DualSlopeAdcConfig cfg = ideal();
  // Non-idealities generating the published error budget over the
  // characterized 0..100-code span (single-shot ramp measurement, the
  // protocol a 1996 bench characterization would use):
  //  * input-path (sampling switch) nonlinearity — INL curvature; the
  //    symmetric integrator nonlinearity cancels in dual slope
  //  * run-down gain mismatch (asymmetric charge injection) — gain error
  //    ~0.5 LSB; the symmetric capacitor-ratio error also cancels
  //  * comparator offset — zero offset (with pedestal rounding) < 0.2 LSB
  //  * per-conversion comparator noise — the DNL wiggle of Figure 2
  //    (~1.2 LSB peaks) and its random-walk accumulation into INL (~1.3)
  cfg.integrator.input_nonlinearity = 2e-3;
  cfg.integrator.invert_gain_mismatch = -2e-3;
  cfg.comparator.offset_v = 4e-3;
  cfg.comparator_noise_v = 5.5e-3;
  cfg.noise_seed = 9;
  return cfg;
}

DualSlopeAdcConfig DualSlopeAdcConfig::varied(analog::ProcessVariation& pv) const {
  DualSlopeAdcConfig cfg = *this;
  cfg.integrator = integrator.varied(pv);
  cfg.comparator = comparator.varied(pv);
  return cfg;
}

DualSlopeAdc::DualSlopeAdc(DualSlopeAdcConfig cfg)
    : cfg_(cfg), noise_rng_(cfg.noise_seed) {
  if (cfg_.vref <= 0 || cfg_.clock_hz <= 0) {
    throw std::invalid_argument("DualSlopeAdc: vref and clock must be > 0");
  }
  if (cfg_.integrate_counts == 0) {
    throw std::invalid_argument("DualSlopeAdc: integrate_counts must be > 0");
  }
}

double DualSlopeAdc::lsb_volts() const {
  return cfg_.vref / static_cast<double>(cfg_.integrate_counts);
}

std::uint32_t DualSlopeAdc::pedestal_counts() const {
  // Pedestal volts divided by the per-count de-integration step g*vref,
  // with g = 1/cap_ratio.
  const double step = cfg_.vref / cfg_.integrator.cap_ratio;
  return static_cast<std::uint32_t>(std::llround(cfg_.pedestal_v / step));
}

std::uint32_t DualSlopeAdc::full_scale_code() const {
  return cfg_.integrate_counts + pedestal_counts();
}

std::uint32_t DualSlopeAdc::ideal_code(double vin) const {
  const double clamped = std::clamp(vin, 0.0, cfg_.vref);
  const double counts =
      static_cast<double>(cfg_.integrate_counts) * (1.0 - clamped / cfg_.vref);
  return pedestal_counts() + static_cast<std::uint32_t>(std::llround(counts));
}

namespace {

/// March up to kConversionLanes conversions of one config together.
///
/// Every conversion is a complete auto-zeroed cycle, so no analogue state
/// survives between conversions and each lane starts from the same
/// state. The lanes share one control FSM and one counter, clocked as if
/// no comparator ever tripped: that is every lane's own sequence up to
/// the clock its comparator trips, so the shared outputs drive every live
/// lane's integrator, and a lane whose comparator is high on a
/// de-integration clock ends there, latching the count held before that
/// clock's counter pulse. Lanes still live at the shared timeout strobe
/// latch the timed-out count; lanes still live when the cycle budget runs
/// out (a frozen control FSM) never latch.
///
/// L is the block width the loops are compiled for (lanes <= L live);
/// a lone conversion gets L = 1 so its integrator output stays in a
/// register.
template <std::size_t L>
void march_block(const DualSlopeAdcConfig& cfg, std::mt19937_64& rng,
                 const double* vin, std::size_t lanes, ConversionResult* out) {
  using analog::ScIntegratorModel;
  const double t_clk = 1.0 / cfg.clock_hz;
  // Local copies, so the compiler can keep the per-config terms in
  // registers across the march.
  const analog::ScIntegratorParams ip = cfg.integrator;
  const analog::ComparatorParams cp = cfg.comparator;

  // Per-conversion comparator noise, in call order: a fresh distribution
  // per conversion, drawn even when unused so the stream stays aligned
  // across configurations with the same seed.
  double v_plus[L] = {};
  ScIntegratorModel::Drive input[L] = {};
  bool live[L] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    std::normal_distribution<double> noise_dist(0.0, 1.0);
    const double noise = cfg.comparator_noise_v > 0.0
                             ? cfg.comparator_noise_v * noise_dist(rng)
                             : (noise_dist(rng), 0.0);
    v_plus[l] = cfg.comparator_threshold + noise;
    // A conversion's first comparator step, which follows its noise draw,
    // rejects a zero clock period.
    if (t_clk <= 0) {
      throw std::invalid_argument("ComparatorModel::step: dt must be > 0");
    }
    // Integrate phase: slope proportional to (Vref - Vin).
    input[l] = ScIntegratorModel::drive(ip, cfg.vref - vin[l], /*invert=*/false);
    live[l] = true;
  }
  // De-integration: constant downward slope proportional to Vref.
  const ScIntegratorModel::Drive reference =
      ScIntegratorModel::drive(ip, cfg.vref, /*invert=*/true);

  const double v_start = ScIntegratorModel(ip).output();
  double vout[L];
  double peak[L];
  analog::ComparatorState comp[L];
  for (std::size_t l = 0; l < L; ++l) {
    vout[l] = v_start;
    peak[l] = 0.0;
  }
  // The comparator output level is read against the 2.5 V logic threshold.
  const bool high_reads_high = cp.v_high > 2.5;
  const bool low_reads_high = cp.v_low > 2.5;
  // Auto-zero: integrator preset to the baseline plus pedestal.
  const double preset =
      std::clamp(cfg.comparator_threshold + cfg.pedestal_v, ip.vout_min, ip.vout_max);

  digital::DualSlopeControl control(cfg.integrate_counts, cfg.timeout_counts,
                                    cfg.control_faults);
  digital::BinaryCounter counter(kAdcCounterBits, cfg.counter_faults);
  control.start();

  std::uint64_t cycle = 0;
  const auto finish = [&](std::size_t l, std::uint32_t count, bool timed_out) {
    digital::OutputLatch latch(kAdcLatchBits, cfg.latch_faults);
    latch.load(count);
    ConversionResult& res = out[l];
    res.code = latch.q();
    res.conversion_time_s = static_cast<double>(cycle + 1) * t_clk;
    res.fall_time_s = static_cast<double>(control.deintegrate_clocks()) * t_clk;
    res.integrator_peak_v = peak[l];
    res.timed_out = timed_out;
    res.completed = true;
    live[l] = false;
  };

  // Hard cycle budget: a stuck control FSM must not hang the caller.
  const std::uint64_t max_cycles =
      2ull + cfg.integrate_counts + cfg.timeout_counts + 8ull;
  std::size_t remaining = lanes;
  for (; cycle < max_cycles && remaining > 0; ++cycle) {
    const digital::ControlOutputs o = control.clock(/*comparator_high=*/false);
    if (o.counter_clear) counter.clear();
    counter.set_enable(o.counter_enable);
    const std::uint32_t held = counter.count();
    if (o.counter_enable) counter.clock();
    // Every lane steps, live or not: the state of a finished or unused
    // lane is never read again, and each pass below is one tight loop
    // over the lanes. The comparator watches the integrator against the
    // baseline threshold (output high once it has fallen back below Vth)
    // before this clock's integrator update.
    bool comp_high[L];
    for (std::size_t l = 0; l < L; ++l) {
      comp_high[l] =
          analog::ComparatorModel::decide(cp, comp[l], v_plus[l], vout[l], t_clk)
              ? high_reads_high
              : low_reads_high;
    }
    if (o.counter_clear) {
      for (std::size_t l = 0; l < L; ++l) vout[l] = preset;
    }
    if (o.connect_input) {
      for (std::size_t l = 0; l < L; ++l) {
        vout[l] = ScIntegratorModel::next_output(ip, input[l], vout[l]);
      }
    } else if (o.connect_ref) {
      for (std::size_t l = 0; l < L; ++l) {
        vout[l] = ScIntegratorModel::next_output(ip, reference, vout[l]);
      }
    }
    for (std::size_t l = 0; l < L; ++l) peak[l] = std::max(peak[l], vout[l]);
    // Only a de-integration clock (the counter counting) ends conversions.
    if (!o.counter_enable) continue;
    for (std::size_t l = 0; l < L; ++l) {
      if (!live[l]) continue;
      if (comp_high[l]) {
        finish(l, held, /*timed_out=*/false);
        --remaining;
      } else if (o.latch_strobe) {
        finish(l, counter.count(), control.timed_out());
        --remaining;
      }
    }
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    if (!live[l]) continue;
    ConversionResult& res = out[l];
    res = ConversionResult{};
    res.code = digital::OutputLatch(kAdcLatchBits, cfg.latch_faults).q();
    res.fall_time_s = static_cast<double>(control.deintegrate_clocks()) * t_clk;
    res.integrator_peak_v = peak[l];
    res.timed_out = control.timed_out();
  }
}

}  // namespace

ConversionResult DualSlopeAdc::convert(double vin) {
  ConversionResult res;
  convert_n(&vin, 1, &res);
  return res;
}

void DualSlopeAdc::convert_n(const double* vin, std::size_t n,
                             ConversionResult* out) {
  if (n == 0) return;
  // Validate as building the Figure-1 sub-macros does, in the same order,
  // before any noise is drawn. (The latch, at kAdcLatchBits, cannot fail.)
  (void)analog::ScIntegratorModel(cfg_.integrator);
  (void)analog::ComparatorModel(cfg_.comparator);
  (void)digital::BinaryCounter(kAdcCounterBits, cfg_.counter_faults);
  (void)digital::DualSlopeControl(cfg_.integrate_counts, cfg_.timeout_counts,
                                  cfg_.control_faults);
  for (std::size_t first = 0; first < n; first += kConversionLanes) {
    const std::size_t lanes = std::min(kConversionLanes, n - first);
    if (lanes == 1) {
      march_block<1>(cfg_, noise_rng_, vin + first, lanes, out + first);
    } else {
      march_block<kConversionLanes>(cfg_, noise_rng_, vin + first, lanes,
                                    out + first);
    }
  }
}

}  // namespace msbist::adc
