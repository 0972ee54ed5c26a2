// E1 — "Analogue test results" (step-input table).
//
// Paper: "The step input macro produced voltage steps of 0, 0.59, 0.96,
// 1.41, 1.8 and 2.5 volts. This gave a measured integrator fall time of
// 2.6, 2.2, 1.9, 1.2, 0.8, and 0.1 msec."
//
// The bench regenerates the table with the on-chip step macro driving the
// dual-slope ADC macro and prints paper-vs-measured, then times a full
// conversion and the analogue BIST tier.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>

#include "adc/dual_slope.h"
#include "bist/controller.h"
#include "circuit/elements.h"
#include "circuit/transient.h"
#include "core/report.h"

namespace {

using namespace msbist;

const std::vector<double> kPaperFallTimesMs = {2.6, 2.2, 1.9, 1.2, 0.8, 0.1};

void print_reproduction() {
  bist::StepGenerator steps = bist::StepGenerator::typical();
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::characterized());

  core::Table table({"step [V]", "paper fall [ms]", "measured fall [ms]",
                     "output code", "conv time [ms]"});
  for (std::size_t i = 0; i < steps.tap_count(); ++i) {
    const double v = steps.level(i);
    const adc::ConversionResult r = adc.convert(v);
    table.add_row({core::Table::num(v, 2),
                   core::Table::num(kPaperFallTimesMs[i], 1),
                   core::Table::num(r.fall_time_s * 1e3, 2),
                   std::to_string(r.code),
                   core::Table::num(r.conversion_time_s * 1e3, 2)});
  }
  std::printf("E1: step-input analogue test (paper vs measured)\n%s\n",
              table.to_string().c_str());
}

void BM_SingleConversion(benchmark::State& state) {
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::characterized());
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adc.convert(v));
    v += 0.1;
    if (v > 2.5) v = 0.0;
  }
}
BENCHMARK(BM_SingleConversion);

void BM_AnalogBistTier(benchmark::State& state) {
  bist::BistController ctrl = bist::BistController::typical();
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::characterized());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.run_tier(bist::Tier::kAnalog, adc));
  }
}
BENCHMARK(BM_AnalogBistTier);

// Circuit-level solver benchmark: an RC integrator chain (op-amp-free
// linear integrator with a step drive) marched for 2000 fixed-dt steps.
// The linear, fixed-dt case is the solver hot path the stamp cache and
// LU reuse target: cached runs factor once and substitute per step;
// solver_cache=false forces the from-scratch stamp + LU every step and
// serves as the pre-cache reference. Waveforms are bit-identical.
void build_integrator_chain(msbist::circuit::Netlist& n, int stages) {
  using namespace msbist::circuit;
  NodeId prev = n.node("in");
  n.add<VoltageSource>(prev, kGround,
                       std::make_shared<PulseWave>(0.0, 1.0, 1e-6, 1e-7, 1e-7,
                                                   5e-4, 1e-3));
  for (int s = 0; s < stages; ++s) {
    const NodeId out = n.node("int" + std::to_string(s));
    n.add<Resistor>(prev, out, 10e3);
    n.add<Capacitor>(out, kGround, 10e-9);
    // Bleed resistor defines the DC point like the SC integrator's RF.
    n.add<Resistor>(out, kGround, 10e6);
    prev = out;
  }
}

void run_integrator_transient(benchmark::State& state, bool cache) {
  using namespace msbist::circuit;
  const int stages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Netlist n;
    build_integrator_chain(n, stages);
    TransientOptions opts;
    opts.dt = 1e-6;
    opts.t_stop = 2e-3;  // 2000 steps
    opts.solver_cache = cache;
    benchmark::DoNotOptimize(transient(n, opts));
  }
  state.counters["steps"] = 2000;
  state.counters["unknowns"] = stages + 2;
}

void BM_LinearIntegratorTransient_Cached(benchmark::State& state) {
  run_integrator_transient(state, true);
}
BENCHMARK(BM_LinearIntegratorTransient_Cached)->Arg(12)->Arg(24)->Arg(48)->Arg(96);

void BM_LinearIntegratorTransient_NoCache(benchmark::State& state) {
  run_integrator_transient(state, false);
}
BENCHMARK(BM_LinearIntegratorTransient_NoCache)->Arg(12)->Arg(24)->Arg(48)->Arg(96);

// Machine yardstick for tools/bench-compare.py: the fixed xorshift loop
// perfbench times as calibration_ms(), touching no library code. The CI
// gate divides every benchmark by this one, so no library change can move
// the yardstick it is judged against.
void BM_Calibration(benchmark::State& state) {
  for (auto _ : state) {
    std::uint64_t x = 88172645463325252ull;
    benchmark::DoNotOptimize(x);
    for (int i = 0; i < 50'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Calibration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
