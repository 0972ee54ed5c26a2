#include "adc/dual_slope.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// Two conversion lanes of doubles, and the lane mask a comparison of two
/// such vectors gives (all ones where true). GCC/Clang vector extensions:
/// under the default x86-64 flags each operation on them is one SSE2
/// instruction, where the same loops over plain double arrays stay scalar.
using Lanes2 = double __attribute__((vector_size(16)));
using Mask2 = std::int64_t __attribute__((vector_size(16)));

Lanes2 splat(double x) { return Lanes2{x, x}; }
Mask2 mask_of(bool b) { return b ? ~Mask2{} : Mask2{}; }

/// March up to L conversions of one config together.
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
/// L is the block width the loops are compiled for (lanes <= L live),
/// lane l living in element l % 2 of vector l / 2. Each per-clock pass is
/// one loop over the L / 2 vectors that runs the scalar models' own
/// ComparatorModel::raw_high and ScIntegratorModel::next_output on them.
template <std::size_t L>
void march_block(const DualSlopeAdcConfig& cfg, std::mt19937_64& rng,
                 const double* vin, std::size_t lanes, ConversionResult* out) {
  static_assert(L >= 2 && L % 2 == 0);
  constexpr std::size_t V = L / 2;
  using analog::ScIntegratorModel;
  const double t_clk = 1.0 / cfg.clock_hz;
  // Local copies, so the compiler can keep the per-config terms in
  // registers across the march.
  const analog::ScIntegratorParams ip = cfg.integrator;
  const analog::ComparatorParams cp = cfg.comparator;

  // Per-conversion comparator noise, in call order: a fresh distribution
  // per conversion, drawn even when unused so the stream stays aligned
  // across configurations with the same seed. Unused lanes keep a zero
  // drive; their state is never read.
  Lanes2 v_plus[V] = {};
  Lanes2 step_gain[V] = {};   // the integrate drive, per lane
  Lanes2 input_gain[V] = {};
  Mask2 live[V] = {};         // all ones while the lane's conversion runs
  for (std::size_t l = 0; l < lanes; ++l) {
    std::normal_distribution<double> noise_dist(0.0, 1.0);
    const double noise = cfg.comparator_noise_v > 0.0
                             ? cfg.comparator_noise_v * noise_dist(rng)
                             : (noise_dist(rng), 0.0);
    v_plus[l / 2][l % 2] = cfg.comparator_threshold + noise;
    // A conversion's first comparator step, which follows its noise draw,
    // rejects a zero clock period.
    if (t_clk <= 0) {
      throw std::invalid_argument("ComparatorModel::step: dt must be > 0");
    }
    // Integrate phase: slope proportional to (Vref - Vin).
    const ScIntegratorModel::Drive d =
        ScIntegratorModel::drive(ip, cfg.vref - vin[l], /*invert=*/false);
    step_gain[l / 2][l % 2] = d.step_gain;
    input_gain[l / 2][l % 2] = d.input_gain;
    live[l / 2][l % 2] = -1;
  }
  // De-integration: constant downward slope proportional to Vref.
  const ScIntegratorModel::Drive reference =
      ScIntegratorModel::drive(ip, cfg.vref, /*invert=*/true);
  const Lanes2 ref_step_gain = splat(reference.step_gain);
  const Lanes2 ref_input_gain = splat(reference.input_gain);

  const Lanes2 v_start = splat(ScIntegratorModel(ip).output());
  Lanes2 vout[V];
  Lanes2 peak[V] = {};
  // Each lane's committed comparator output (ComparatorState::out_high).
  Mask2 high[V] = {};
  for (Lanes2& v : vout) v = v_start;
  // ComparatorModel::decide with no delay commits its raw comparison at
  // once; a delayed comparator keeps its pending-edge timer per lane.
  const bool delayed = !(cp.delay_s <= 0.0);
  analog::ComparatorState comp[L];
  // The comparator output level is read against the 2.5 V logic threshold.
  const bool high_reads_high = cp.v_high > 2.5;
  const bool low_reads_high = cp.v_low > 2.5;
  const Mask2 high_reads = mask_of(high_reads_high);
  const Mask2 low_reads = mask_of(low_reads_high);
  // Auto-zero: integrator preset to the baseline plus pedestal.
  const Lanes2 preset = splat(
      std::clamp(cfg.comparator_threshold + cfg.pedestal_v, ip.vout_min, ip.vout_max));

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
    res.integrator_peak_v = peak[l / 2][l % 2];
    res.timed_out = timed_out;
    res.completed = true;
    live[l / 2][l % 2] = 0;
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
    // lane is never read again. The comparator watches the integrator
    // against the baseline threshold (output high once it has fallen back
    // below Vth) before this clock's integrator update.
    if (!delayed) {
      for (std::size_t v = 0; v < V; ++v) {
        high[v] = analog::ComparatorModel::raw_high(cp, high[v], v_plus[v], vout[v]);
      }
    } else {
      for (std::size_t l = 0; l < L; ++l) {
        high[l / 2][l % 2] =
            analog::ComparatorModel::decide(cp, comp[l], v_plus[l / 2][l % 2],
                                            vout[l / 2][l % 2], t_clk)
                ? -1
                : 0;
      }
    }
    if (o.counter_clear) {
      for (Lanes2& v : vout) v = preset;
    }
    if (o.connect_input) {
      for (std::size_t v = 0; v < V; ++v) {
        vout[v] = ScIntegratorModel::next_output(ip, step_gain[v], input_gain[v],
                                                 /*invert=*/false, vout[v]);
      }
    } else if (o.connect_ref) {
      for (Lanes2& v : vout) {
        v = ScIntegratorModel::next_output(ip, ref_step_gain, ref_input_gain,
                                           /*invert=*/true, v);
      }
    }
    for (std::size_t v = 0; v < V; ++v) {
      peak[v] = vout[v] > peak[v] ? vout[v] : peak[v];
    }
    // Only a de-integration clock (the counter counting) ends conversions:
    // a live lane whose comparator reads high, or every live lane at the
    // strobe. Most clocks end none, so test all lanes at once first.
    if (!o.counter_enable) continue;
    Mask2 ending = {};
    for (std::size_t v = 0; v < V; ++v) {
      ending |= live[v] & ((high[v] & high_reads) | (~high[v] & low_reads));
    }
    if (!o.latch_strobe && (ending[0] | ending[1]) == 0) continue;
    for (std::size_t l = 0; l < L; ++l) {
      if (live[l / 2][l % 2] == 0) continue;
      if (high[l / 2][l % 2] != 0 ? high_reads_high : low_reads_high) {
        finish(l, held, /*timed_out=*/false);
        --remaining;
      } else if (o.latch_strobe) {
        finish(l, counter.count(), control.timed_out());
        --remaining;
      }
    }
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    if (live[l / 2][l % 2] == 0) continue;
    ConversionResult& res = out[l];
    res = ConversionResult{};
    res.code = digital::OutputLatch(kAdcLatchBits, cfg.latch_faults).q();
    res.fall_time_s = static_cast<double>(control.deintegrate_clocks()) * t_clk;
    res.integrator_peak_v = peak[l / 2][l % 2];
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
  // A lone conversion (or a pair) runs one vector; every other block runs
  // the full width.
  for (std::size_t first = 0; first < n; first += kConversionLanes) {
    const std::size_t lanes = std::min(kConversionLanes, n - first);
    if (lanes <= 2) {
      march_block<2>(cfg_, noise_rng_, vin + first, lanes, out + first);
    } else {
      march_block<kConversionLanes>(cfg_, noise_rng_, vin + first, lanes, out + first);
    }
  }
}

}  // namespace msbist::adc
