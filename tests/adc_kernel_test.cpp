// The lane-batched conversion kernel against a per-clock reference.
//
// reference_convert() below is the converter's original one-conversion,
// one-clock-at-a-time loop over the Figure-1 sub-macro models. The kernel
// behind DualSlopeAdc::convert / convert_n must reproduce it bit for bit:
// every ConversionResult field, and the noise-stream position afterwards,
// for every config the production flows and fault menus can build.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "adc/dual_slope.h"
#include "analog/macro.h"

namespace msbist::adc {
namespace {

/// One conversion exactly as the original per-clock loop ran it.
ConversionResult reference_convert(const DualSlopeAdcConfig& cfg,
                                   std::mt19937_64& rng, double vin) {
  const double t_clk = 1.0 / cfg.clock_hz;
  analog::ScIntegratorModel integrator(cfg.integrator);
  analog::ComparatorModel comparator(cfg.comparator);
  digital::BinaryCounter counter(kAdcCounterBits, cfg.counter_faults);
  digital::OutputLatch latch(kAdcLatchBits, cfg.latch_faults);
  digital::DualSlopeControl control(cfg.integrate_counts, cfg.timeout_counts,
                                    cfg.control_faults);

  std::normal_distribution<double> noise_dist(0.0, 1.0);
  const double noise = cfg.comparator_noise_v > 0.0
                           ? cfg.comparator_noise_v * noise_dist(rng)
                           : (noise_dist(rng), 0.0);

  ConversionResult res;
  control.start();
  comparator.reset(false);
  const std::uint64_t max_cycles =
      2ull + cfg.integrate_counts + cfg.timeout_counts + 8ull;
  const double g = 1.0;
  for (std::uint64_t cycle = 0; cycle < max_cycles; ++cycle) {
    const bool comp_high =
        comparator.step(cfg.comparator_threshold + noise, integrator.output(),
                        t_clk) > 2.5;
    const digital::ControlOutputs out = control.clock(comp_high);
    if (out.counter_clear) {
      counter.clear();
      integrator.reset(cfg.comparator_threshold + cfg.pedestal_v);
    }
    counter.set_enable(out.counter_enable);
    if (out.connect_input) {
      integrator.update(g * (cfg.vref - vin));
    } else if (out.connect_ref) {
      integrator.update(g * cfg.vref, /*invert=*/true);
    }
    if (out.counter_enable) counter.clock();
    res.integrator_peak_v = std::max(res.integrator_peak_v, integrator.output());
    if (out.latch_strobe) {
      latch.load(counter.count());
      res.completed = true;
      res.conversion_time_s = static_cast<double>(cycle + 1) * t_clk;
      break;
    }
  }
  res.code = latch.q();
  res.timed_out = control.timed_out();
  res.fall_time_s = static_cast<double>(control.deintegrate_clocks()) * t_clk;
  return res;
}

std::string bits_of(const ConversionResult& r) {
  return "code=" + std::to_string(r.code) +
         " conv=" + std::to_string(std::bit_cast<std::uint64_t>(r.conversion_time_s)) +
         " fall=" + std::to_string(std::bit_cast<std::uint64_t>(r.fall_time_s)) +
         " peak=" + std::to_string(std::bit_cast<std::uint64_t>(r.integrator_peak_v)) +
         " timed_out=" + std::to_string(r.timed_out) +
         " completed=" + std::to_string(r.completed);
}

struct NamedConfig {
  std::string name;
  DualSlopeAdcConfig cfg;
};

std::vector<NamedConfig> kernel_configs() {
  std::vector<NamedConfig> out;
  const DualSlopeAdcConfig ch = DualSlopeAdcConfig::characterized();
  out.push_back({"characterized", ch});
  out.push_back({"ideal", DualSlopeAdcConfig::ideal()});
  out.push_back({"default", DualSlopeAdcConfig{}});
  for (const auto& [label, phase] :
       {std::pair{"idle", digital::ConvPhase::kIdle},
        std::pair{"auto_zero", digital::ConvPhase::kAutoZero},
        std::pair{"integrate", digital::ConvPhase::kIntegrate},
        std::pair{"deintegrate", digital::ConvPhase::kDeintegrate},
        std::pair{"done", digital::ConvPhase::kDone}}) {
    DualSlopeAdcConfig c = ch;
    c.control_faults.stuck_phase = phase;
    out.push_back({std::string("stuck_") + label, c});
  }
  DualSlopeAdcConfig c = ch;
  c.counter_faults.stuck_bit = 3;
  out.push_back({"counter_bit3_low", c});
  c = ch;
  c.counter_faults.stuck_bit = 4;
  c.counter_faults.stuck_bit_high = true;
  out.push_back({"counter_bit4_high", c});
  c = ch;
  c.counter_faults.miss_every = 3;
  out.push_back({"miss_every_3", c});
  c = ch;
  c.latch_faults.stuck_high_mask = 0x44;
  c.latch_faults.stuck_low_mask = 0x201;
  out.push_back({"latch_masks", c});
  c = ch;
  c.latch_faults.load_disabled = true;
  out.push_back({"load_disabled", c});
  c = DualSlopeAdcConfig{};
  c.comparator.delay_s = 0.0;
  out.push_back({"delay_zero", c});
  c = DualSlopeAdcConfig{};
  c.comparator.delay_s = 25e-6;  // two and a half clocks
  c.comparator.hysteresis_v = 4e-3;
  out.push_back({"delay_over_one_clock", c});
  c = ch;
  c.timeout_counts = 120;  // inputs below ~1.1 V time out
  out.push_back({"short_timeout", c});
  c = ch;
  c.integrator.vout_max = 2.2;  // the integrate phase saturates
  c.integrator.vout_min = 0.75;
  out.push_back({"saturating_integrator", c});
  c = ch;
  c.comparator.v_high = 2.0;  // the output never reads high: always times out
  out.push_back({"comparator_never_high", c});
  c = ch;
  c.comparator_noise_v = 0.05;
  c.integrator.leak = 1e-3;
  c.integrator.offset_per_cycle = 1e-4;
  c.integrator.nonlinearity = 1e-2;
  out.push_back({"noisy_leaky", c});
  // Varied dies, as core::Device fabricates them.
  for (std::uint64_t seed : {3u, 1996u}) {
    analog::ProcessVariation pv(seed);
    DualSlopeAdcConfig v = ch.varied(pv);
    v.noise_seed = ch.noise_seed ^ (seed * 0x9E3779B97F4A7C15ull);
    out.push_back({"varied_" + std::to_string(seed), v});
  }
  return out;
}

/// Inputs spanning below 0 V to above vref, with repeats; 37 is not a
/// multiple of the lane width, so the last block is partial.
std::vector<double> kernel_inputs() {
  std::vector<double> v;
  for (int i = 0; i < 33; ++i) v.push_back(-0.3 + 0.1 * i);  // -0.3 .. 2.9 V
  v.push_back(1.0);
  v.push_back(1.0);
  v.push_back(2.5);
  v.push_back(0.0);
  return v;
}

void expect_same(const ConversionResult& got, const ConversionResult& want,
                 const std::string& where) {
  EXPECT_EQ(bits_of(got), bits_of(want)) << where;
}

TEST(ConversionKernel, ConvertNMatchesPerClockReferenceBitForBit) {
  const std::vector<double> vin = kernel_inputs();
  for (const NamedConfig& nc : kernel_configs()) {
    for (std::size_t n : {std::size_t{1}, kConversionLanes - 1, kConversionLanes,
                          kConversionLanes + 1, vin.size()}) {
      DualSlopeAdc adc(nc.cfg);
      std::mt19937_64 rng(nc.cfg.noise_seed);
      std::vector<ConversionResult> got(n);
      adc.convert_n(vin.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        expect_same(got[i], reference_convert(nc.cfg, rng, vin[i]),
                    nc.name + " n=" + std::to_string(n) + " i=" + std::to_string(i));
      }
      EXPECT_TRUE(adc.noise_stream() == rng) << nc.name << " n=" << n;
    }
  }
}

TEST(ConversionKernel, ConvertMatchesPerClockReferenceBitForBit) {
  const std::vector<double> vin = kernel_inputs();
  for (const NamedConfig& nc : kernel_configs()) {
    DualSlopeAdc adc(nc.cfg);
    std::mt19937_64 rng(nc.cfg.noise_seed);
    for (std::size_t i = 0; i < vin.size(); ++i) {
      expect_same(adc.convert(vin[i]), reference_convert(nc.cfg, rng, vin[i]),
                  nc.name + " i=" + std::to_string(i));
    }
    EXPECT_TRUE(adc.noise_stream() == rng) << nc.name;
  }
}

TEST(ConversionKernel, ConfigsCoverEveryEndOfConversion) {
  // The equivalence above is only as strong as the paths it reaches.
  const std::vector<double> vin = kernel_inputs();
  bool tripped = false, timed_out = false, never_completed = false,
       saturated = false;
  for (const NamedConfig& nc : kernel_configs()) {
    DualSlopeAdc adc(nc.cfg);
    std::vector<ConversionResult> got(vin.size());
    adc.convert_n(vin.data(), vin.size(), got.data());
    for (const ConversionResult& r : got) {
      tripped = tripped || (r.completed && !r.timed_out);
      timed_out = timed_out || r.timed_out;
      never_completed = never_completed || !r.completed;
      saturated = saturated || r.integrator_peak_v == nc.cfg.integrator.vout_max;
    }
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(timed_out);
  EXPECT_TRUE(never_completed);
  EXPECT_TRUE(saturated);
}

TEST(ConversionKernel, EmptyBatchDrawsNoNoise) {
  DualSlopeAdc adc(DualSlopeAdcConfig::characterized());
  const std::mt19937_64 before = adc.noise_stream();
  adc.convert_n(nullptr, 0, nullptr);
  EXPECT_TRUE(adc.noise_stream() == before);
}

TEST(ConversionKernel, InvalidConfigsThrowTheSubMacroMessages) {
  struct Case {
    const char* what;
    void (*apply)(DualSlopeAdcConfig&);
  };
  const Case cases[] = {
      {"ScIntegratorModel: cap_ratio must be > 0",
       [](DualSlopeAdcConfig& c) { c.integrator.cap_ratio = 0.0; }},
      {"ScIntegratorModel: cap_ratio must be > 0",
       [](DualSlopeAdcConfig& c) { c.integrator.cap_ratio = -1.0; }},
      {"ScIntegratorModel: vout_max must exceed vout_min",
       [](DualSlopeAdcConfig& c) { c.integrator.vout_max = c.integrator.vout_min; }},
      {"ComparatorModel: hysteresis and delay must be >= 0",
       [](DualSlopeAdcConfig& c) { c.comparator.hysteresis_v = -1e-3; }},
      {"ComparatorModel: hysteresis and delay must be >= 0",
       [](DualSlopeAdcConfig& c) { c.comparator.delay_s = -1e-6; }},
      {"ComparatorModel: v_high must exceed v_low",
       [](DualSlopeAdcConfig& c) { c.comparator.v_high = c.comparator.v_low; }},
      {"BinaryCounter: stuck bit outside counter width",
       [](DualSlopeAdcConfig& c) { c.counter_faults.stuck_bit = kAdcCounterBits; }},
      {"BinaryCounter: stuck bit outside counter width",
       [](DualSlopeAdcConfig& c) { c.counter_faults.stuck_bit = 12; }},
      {"DualSlopeControl: counts must be > 0",
       [](DualSlopeAdcConfig& c) { c.timeout_counts = 0; }},
  };
  const double vin[3] = {0.5, 1.0, 1.5};
  for (const Case& tc : cases) {
    DualSlopeAdcConfig cfg = DualSlopeAdcConfig::characterized();
    tc.apply(cfg);
    DualSlopeAdc adc(cfg);
    const std::mt19937_64 before = adc.noise_stream();
    const auto message_of = [](const auto& fn) -> std::string {
      try {
        fn();
      } catch (const std::invalid_argument& e) {
        return e.what();
      }
      return "(no std::invalid_argument)";
    };
    std::mt19937_64 rng(cfg.noise_seed);
    EXPECT_EQ(message_of([&] { (void)reference_convert(cfg, rng, 1.0); }), tc.what);
    EXPECT_EQ(message_of([&] { (void)adc.convert(1.0); }), tc.what);
    ConversionResult out[3];
    EXPECT_EQ(message_of([&] { adc.convert_n(vin, 3, out); }), tc.what);
    // Validation precedes the noise draw, as it did per conversion.
    EXPECT_TRUE(adc.noise_stream() == before) << tc.what;
  }
}

}  // namespace
}  // namespace msbist::adc
