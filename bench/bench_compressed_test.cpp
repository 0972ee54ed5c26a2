// E4 — "Compressed test results".
//
// Paper: "The built-in self test macros were configured to perform a quick
// functional test of the ADC by compressing the digital output signature
// from the consecutive application of the DC step input values. ... Input
// to the ADC was then ramped and the maximum integrator voltage signal was
// compressed into a 2 bit code. This analogue signature gave expected
// results on all chips. A batch of 10 devices were fabricated... All
// devices passed the analogue, digital and compressed tests."
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/device.h"
#include "core/report.h"
#include "production/batch.h"

namespace {

using namespace msbist;

void print_reproduction() {
  const production::BatchReport res = production::run_batch(
      production::paper_population(), production::TestPlan::bist_only());

  core::Table table({"die", "digital signature", "analogue sig (2-bit)", "analog",
                     "ramp", "digital", "compressed", "overall"});
  for (std::size_t i = 0; i < res.devices.size(); ++i) {
    const bist::BistReport& r = res.devices[i].bist;
    char sig[16];
    std::snprintf(sig, sizeof sig, "0x%04x", r.compressed.digital_signature);
    table.add_row({std::to_string(i + 1), sig,
                   r.compressed.analog_signature == 0b01 ? "01" : "??",
                   r.analog.pass ? "pass" : "FAIL", r.ramp.pass ? "pass" : "FAIL",
                   r.digital.pass ? "pass" : "FAIL",
                   r.compressed.pass ? "pass" : "FAIL",
                   r.pass ? "pass" : "FAIL"});
  }
  std::printf("E4: compressed test over the fabricated batch of 10 devices\n%s",
              table.to_string().c_str());
  std::printf("paper: all 10 devices passed;  measured: %zu/%zu passed\n\n",
              res.passed, res.devices.size());

  // Escape check: a gross fault must break the signature.
  adc::DualSlopeAdcConfig bad = adc::DualSlopeAdcConfig::characterized();
  bad.counter_faults.stuck_bit = 5;
  core::Device faulty(0, bad);
  const bist::BistReport frep = faulty.run_bist();
  std::printf("fault check: counter stuck-bit device %s the compressed test\n\n",
              frep.compressed.pass ? "PASSES (escape!)" : "fails");
}

void BM_CompressedTestTier(benchmark::State& state) {
  bist::BistController ctrl = bist::BistController::typical();
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::characterized());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.run_tier(bist::Tier::kCompressed, adc));
  }
}
BENCHMARK(BM_CompressedTestTier);

void BM_FullProductionBatch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(production::run_batch(
        production::paper_population(), production::TestPlan::bist_only()));
  }
}
BENCHMARK(BM_FullProductionBatch);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
