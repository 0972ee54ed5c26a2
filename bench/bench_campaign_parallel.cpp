// P1 — fault-campaign engine: wall-clock scaling over thread counts
// against the in-order reference (run_campaign, the same engine on one
// thread) over a production-scale universe, with a determinism
// cross-check.
//
// The per-fault test is a deterministic signature computation standing in
// for the transient solve, and nothing else: pure compute, so the speedup
// measures the engine's scaling over the machine's cores, not overlapped
// waiting. The micro-benchmarks report wall time (UseRealTime) and the
// CPU time of the whole process (MeasureProcessCPUTime), so worker-thread
// CPU counts too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/report.h"
#include "faults/campaign.h"
#include "faults/universe.h"

namespace {

using namespace msbist;

// Deterministic per-fault test: every outcome field derives from the spec
// alone, so any two runs (any engine, any thread count) must agree.
faults::FaultResult signature_probe(const faults::FaultSpec& f) {
  double acc = 1.0 + 0.01 * f.node_a + 0.001 * f.node_b +
               (f.stuck_high ? 0.5 : 0.0);
  for (int k = 0; k < 20000; ++k) {
    acc = std::fma(acc, 0.99995, std::sin(1e-3 * k + 0.1 * f.node_a));
  }
  faults::FaultResult r;
  r.fault = f;
  r.score = 50.0 + 50.0 * std::sin(acc);
  r.detected = r.score > 15.0;
  r.detail = "sig:" + f.label;
  return r;
}

void print_reproduction() {
  // >= 200 faults: exhaustive single-stuck universe over nodes 1..120.
  const auto universe = faults::all_single_stuck(1, 120);  // 240 faults

  // Warm caches and the allocator first, so the serial reference is not
  // charged for them.
  (void)faults::run_campaign(universe, signature_probe);
  const auto t0 = std::chrono::steady_clock::now();
  const faults::CampaignReport serial =
      faults::run_campaign(universe, signature_probe);
  const double serial_wall = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();

  core::Table table(
      {"engine", "wall [s]", "speedup", "faults/s", "identical"});
  table.add_row({"serial", core::Table::num(serial_wall, 3),
                 core::Table::num(1.0, 2),
                 core::Table::num(static_cast<double>(universe.size()) /
                                      serial_wall,
                                  1),
                 "ref"});

  double speedup_at_4 = 0.0;
  bool identical_at_4 = false;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    faults::CampaignOptions opts;
    opts.threads = threads;
    const faults::CampaignReport par =
        faults::run_campaign_parallel(universe, signature_probe, opts);
    const bool identical =
        par.canonical_outcomes() == serial.canonical_outcomes();
    const double speedup = serial_wall / par.wall_seconds;
    if (threads == 4) {
      speedup_at_4 = speedup;
      identical_at_4 = identical;
    }
    table.add_row({std::to_string(threads) + " threads",
                   core::Table::num(par.wall_seconds, 3),
                   core::Table::num(speedup, 2),
                   core::Table::num(par.faults_per_second(), 1),
                   identical ? "yes" : "NO"});
  }

  // Compute-only work cannot scale past the cores it runs on: the target
  // is half of ideal scaling at 4 threads on this machine's cores.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double target = 0.5 * static_cast<double>(std::min(4u, cores));
  std::printf(
      "P1: fault campaign over %zu single-stuck faults (compute only)\n%s"
      "4-thread speedup %.2fx (target >= %.1fx: half of ideal on %u "
      "hardware thread(s)), report identical to serial: %s\n%s\n\n",
      universe.size(), table.to_string().c_str(), speedup_at_4, target,
      cores, identical_at_4 ? "yes" : "NO",
      serial.throughput_summary().c_str());
}

void BM_CampaignSerial(benchmark::State& state) {
  const auto universe = faults::all_single_stuck(1, 20);  // 40 faults
  for (auto _ : state) {
    benchmark::DoNotOptimize(faults::run_campaign(universe, signature_probe));
  }
}
BENCHMARK(BM_CampaignSerial)->MeasureProcessCPUTime()->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_CampaignParallel(benchmark::State& state) {
  const auto universe = faults::all_single_stuck(1, 20);  // 40 faults
  faults::CampaignOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        faults::run_campaign_parallel(universe, signature_probe, opts));
  }
}
BENCHMARK(BM_CampaignParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
