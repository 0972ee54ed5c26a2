// P3 — production batch-test engine: wall-clock scaling vs the serial
// path over a 1000-device Monte-Carlo lot, with a determinism cross-check.
//
// The per-device procedure is the virtual die's own test plan and nothing
// else: pure compute, so the parallel speedup measures the engine's
// scaling over the machine's cores, not overlapped waiting. The
// micro-benchmarks report wall time (UseRealTime) and the CPU time of the
// whole process (MeasureProcessCPUTime), so worker-thread CPU counts too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/report.h"
#include "production/batch.h"

namespace {

using namespace msbist;

void print_reproduction() {
  production::BatchConfig cfg;
  cfg.device_count = 1000;
  cfg.batch_seed = 1995;
  cfg.plan = production::TestPlan::bist_only();
  const auto population = production::make_population(cfg);

  // Warm caches and the allocator first, so the serial reference is not
  // charged for them.
  (void)production::run_batch(population, cfg.plan, 1);
  const auto t0 = std::chrono::steady_clock::now();
  const production::BatchReport serial =
      production::run_batch(population, cfg.plan, 1);
  const double serial_wall = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();

  core::Table table({"engine", "wall [s]", "speedup", "devices/s", "identical"});
  table.add_row({"serial", core::Table::num(serial_wall, 3),
                 core::Table::num(1.0, 2),
                 core::Table::num(
                     static_cast<double>(population.size()) / serial_wall, 1),
                 "ref"});

  double speedup_at_4 = 0.0;
  bool identical_at_4 = false;
  for (std::size_t threads : {2u, 4u, 8u}) {
    const production::BatchReport par =
        production::run_batch(population, cfg.plan, threads);
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
                   core::Table::num(par.devices_per_second(), 1),
                   identical ? "yes" : "NO"});
  }

  // Compute-only work cannot scale past the cores it runs on: the target
  // is half of ideal scaling at 4 threads on this machine's cores.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double target = 0.5 * static_cast<double>(std::min(4u, cores));
  std::printf(
      "P3: batch test of a %zu-device Monte-Carlo lot (BIST plan, "
      "compute only)\n%s"
      "4-thread speedup %.2fx (target >= %.1fx: half of ideal on %u "
      "hardware thread(s)), report identical to serial: %s\n%s\n\n",
      population.size(), table.to_string().c_str(), speedup_at_4, target,
      cores, identical_at_4 ? "yes" : "NO", serial.summary().c_str());
}

/// A 20-die lot under `plan` on `threads` workers.
void run_lot(benchmark::State& state, const production::TestPlan& plan,
             std::size_t threads) {
  production::BatchConfig cfg;
  cfg.device_count = 20;
  cfg.plan = plan;
  const auto population = production::make_population(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(production::run_batch(population, cfg.plan, threads));
  }
}

void BM_BatchSerial(benchmark::State& state) {
  run_lot(state, production::TestPlan::bist_only(), 1);
}
BENCHMARK(BM_BatchSerial)->MeasureProcessCPUTime()->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_BatchParallel(benchmark::State& state) {
  run_lot(state, production::TestPlan::bist_only(),
          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_BatchParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The full plan: BIST tiers, full-spec characterization, spot check.
void BM_BatchFullPlan(benchmark::State& state) {
  run_lot(state, production::TestPlan::full(),
          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_BatchFullPlan)
    ->Arg(1)
    ->Arg(4)
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
