// Lockstep Monte-Carlo batch transients vs one-scalar-transient-per-die,
// and lockstep per-die cost as the lot grows.
//
// The workload is msbistd's canonical lockstep settling screen
// (service::lockstep_screen_plan): a 98-unknown macro array with per-die
// R/C/drive spreads — a resistive cell bank hanging off the test bus
// with RC poles on every 16th cell and on the output — marched for 50
// steps, the short screen a production insertion actually runs. The
// scalar reference builds each of 32 dies as a standalone netlist
// (LockstepPlan::build) and runs its own sparse transient through
// run_batch's DeviceTestFn path — 32 netlists, 32 symbolic analyses, 32
// factorizations, 32 independent marches. The lockstep path
// (production::run_batch_lockstep over circuit::BatchTransient) writes
// each die's value row into lane netlists it builds once per call,
// performs one symbolic analysis per lane block, replays its pivot
// schedule across the dies' entry-major SoA value slabs, and batches the
// DC seeds and every march step into vectorized solves — so the per-die
// setup cost that dominates a short screen is paid once per block, not
// per die.
//
// The reproduction prints the 32-die comparison (the per-die throughput
// gain, best of 3 runs per path) and the lockstep per-die cost at 256
// and 4096 dies, which stays flat when the lane blocks keep the working
// set cache-sized. Both paths judge through the same
// circuit::LaneWaveforms judge, and each lockstep lane matches a scalar
// transient of its netlist, so the verdicts must agree die for die: the
// binary exits non-zero when they do not. CI gates the individual
// timings via tools/bench-compare.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "production/batch.h"
#include "service/dispatch.h"

namespace {

using namespace msbist;

constexpr std::size_t kDies = 32;
constexpr std::uint64_t kSeed = 1000;

production::BatchReport run_scalar(const std::vector<production::DieSpec>& dies) {
  const production::LockstepPlan plan = service::lockstep_screen_plan();
  const production::DeviceTestFn per_die =
      [&](const production::DieSpec& spec,
          const production::TestPlan&) -> production::DeviceOutcome {
    circuit::Netlist n;
    plan.build(spec, n);
    circuit::TransientOptions t;
    t.dt = plan.transient.dt;
    t.t_stop = plan.transient.t_stop;
    t.newton = plan.transient.newton;
    const circuit::TransientResult r = circuit::transient(n, t);
    production::DeviceOutcome out;
    out.seed = spec.seed;
    out.label = spec.label;
    out.outcome = plan.evaluate(spec, circuit::LaneWaveforms(r));
    return out;
  };
  return production::run_batch(dies, production::TestPlan::bist_only(), 1,
                               per_die);
}

production::BatchReport run_lockstep(const std::vector<production::DieSpec>& dies,
                                     std::size_t threads = 1) {
  return production::run_batch_lockstep(dies, service::lockstep_screen_plan(),
                                        nullptr, {}, threads);
}

/// Best of `reps` wall times of fn(), in seconds: a single cold run is at
/// the mercy of the scheduler; the minimum is the standard
/// noise-resistant estimator.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(clock::now() - t0).count());
  }
  return best;
}

/// Prints the reproduction; false when the two paths' verdicts disagree.
bool print_reproduction() {
  const auto dies = service::lockstep_screen_population(kDies, kSeed);
  production::BatchReport scalar;
  production::BatchReport lockstep;
  const double scalar_s = best_seconds(3, [&] { scalar = run_scalar(dies); });
  const double lock_s = best_seconds(3, [&] { lockstep = run_lockstep(dies); });

  bool agree = scalar.devices.size() == lockstep.devices.size();
  std::size_t passes = 0;
  for (std::size_t i = 0; agree && i < scalar.devices.size(); ++i) {
    agree = scalar.devices[i].outcome.pass == lockstep.devices[i].outcome.pass;
    if (lockstep.devices[i].outcome.pass) ++passes;
  }
  std::printf(
      "lockstep vs scalar screen, %zu dies x 98 unknowns, 50 steps:\n"
      "  scalar %.1f ms (%.1f dies/s)   lockstep %.1f ms (%.1f dies/s)\n"
      "  per-die throughput gain %.2fx   verdicts agree: %s"
      " (%zu/%zu pass)\n",
      kDies, scalar_s * 1e3, static_cast<double>(kDies) / scalar_s,
      lock_s * 1e3, static_cast<double>(kDies) / lock_s, scalar_s / lock_s,
      agree ? "yes" : "NO", passes, kDies);

  const auto small = service::lockstep_screen_population(256, kSeed);
  const auto large = service::lockstep_screen_population(4096, kSeed);
  const double small_ms = best_seconds(3, [&] { run_lockstep(small); }) * 1e3;
  const double large_ms = best_seconds(3, [&] { run_lockstep(large); }) * 1e3;
  const double large2_ms = best_seconds(3, [&] { run_lockstep(large, 2); }) * 1e3;
  std::printf(
      "lockstep per-die cost, %zu-die blocks: 256 dies %.4f ms/die, "
      "4096 dies %.4f ms/die (%.2fx of 256), 4096 dies on 2 threads "
      "%.4f ms/die wall\n\n",
      production::kLockstepBlockDies, small_ms / 256.0, large_ms / 4096.0,
      (large_ms / 4096.0) / (small_ms / 256.0), large2_ms / 4096.0);
  return agree;
}

void BM_Batch32_ScalarDies(benchmark::State& state) {
  const auto dies = service::lockstep_screen_population(kDies, kSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_scalar(dies));
  }
  state.counters["dies"] = kDies;
}
BENCHMARK(BM_Batch32_ScalarDies)->Unit(benchmark::kMillisecond);

void BM_Batch32_Lockstep(benchmark::State& state) {
  const auto dies = service::lockstep_screen_population(kDies, kSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_lockstep(dies));
  }
  state.counters["dies"] = kDies;
}
BENCHMARK(BM_Batch32_Lockstep)->Unit(benchmark::kMillisecond);

void BM_Lockstep4096(benchmark::State& state) {
  const auto dies = service::lockstep_screen_population(4096, kSeed);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_lockstep(dies, threads));
  }
  state.counters["dies"] = 4096;
}
BENCHMARK(BM_Lockstep4096)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  if (!print_reproduction()) {
    std::fprintf(stderr,
                 "bench_batch_lockstep: scalar and lockstep verdicts disagree\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
