// A5 — ablation: parametric (soft) fault severity vs detection.
//
// Catastrophic stuck-at faults are the paper's universe; real silicon
// also degrades gradually. This bench sweeps a transconductance loss on
// the OP1 diff-pair device and on all devices, reporting where each
// signature (correlation, spectrum, Idd) starts firing — the soft-fault
// detection threshold of the transient-response technique.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/report.h"
#include "core/thread_pool.h"
#include "faults/campaign.h"
#include "faults/parametric.h"
#include "faults/universe.h"
#include "tsrt/transient_test.h"

namespace {

using namespace msbist;
using namespace msbist::tsrt;

void print_reproduction() {
  const CircuitKind kind = CircuitKind::kOp1Follower;
  const TsrtOptions opts = paper_options(kind);
  const TsrtRun golden = run_transient_test(kind, std::nullopt, opts);

  core::Table table({"kp scale", "scope", "corr det [%]", "spectrum det [%]",
                     "Idd det [%]"});
  for (double scale : {0.98, 0.9, 0.7, 0.5, 0.3, 0.1}) {
    for (int scope : {0, 1}) {
      // scope 0: every device degraded (uniform process drift);
      // scope 1: only the diff-pair input device (local defect).
      const auto fault = scope == 0
                             ? faults::ParametricFault::degrade_kp(scale)
                             : faults::ParametricFault::degrade_kp(scale, 3);
      const TsrtRun run = run_transient_test(kind, fault, opts);
      table.add_row({core::Table::num(scale, 2), scope == 0 ? "all" : "M4 only",
                     core::Table::num(correlation_detection_percent(golden, run), 1),
                     core::Table::num(spectrum_detection_percent(golden, run), 1),
                     core::Table::num(idd_detection_percent(golden, run), 1)});
    }
  }
  std::printf(
      "A5: soft-fault severity sweep on circuit 1 (beta degradation)\n%s"
      "In-spec drift (2%%) stays quiet on every channel; gross degradation\n"
      "fires the same signatures as catastrophic faults.\n\n",
      table.to_string().c_str());
}

void print_campaign_throughput() {
  // Campaign observability: the paper's 16-fault catastrophic universe run
  // through the real TSRT engine, serial vs parallel, with the
  // CampaignReport throughput summary the engines now collect.
  const CircuitKind kind = CircuitKind::kOp1Follower;
  const TsrtOptions opts = paper_options(kind);
  const TsrtRun golden = run_transient_test(kind, std::nullopt, opts);
  const faults::FaultTestFn test = [&](const faults::FaultSpec& f) {
    faults::FaultResult r;
    r.fault = f;
    const TsrtRun faulty = run_transient_test(kind, f, opts);
    r.score = combined_detection_percent(golden, faulty);
    r.detected = is_detected(r.score);
    return r;
  };
  const auto universe = faults::op1_fault_universe();
  const faults::CampaignReport serial = faults::run_campaign(universe, test);
  faults::CampaignOptions copts;
  copts.threads = core::default_thread_count();
  const faults::CampaignReport parallel =
      faults::run_campaign_parallel(universe, test, copts);
  std::printf(
      "A5b: OP1 catastrophic campaign throughput (TSRT engine)\n"
      "  serial   : %s\n"
      "  parallel : %s\n"
      "  reports identical: %s\n\n",
      serial.throughput_summary().c_str(),
      parallel.throughput_summary().c_str(),
      parallel.canonical_outcomes() == serial.canonical_outcomes() ? "yes"
                                                                   : "NO");
}

void BM_ParametricRun(benchmark::State& state) {
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const auto fault = faults::ParametricFault::degrade_kp(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_transient_test(CircuitKind::kOp1Follower, fault, opts));
  }
}
BENCHMARK(BM_ParametricRun);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  print_campaign_throughput();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
