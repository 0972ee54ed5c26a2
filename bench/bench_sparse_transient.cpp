// The sparse MNA solver on a macro-array transient.
//
// The workload is a bus-fed RC macro array — the topology family the
// collapse bench and the sparse-solver tests share — sized to 98 MNA
// unknowns (94 cells + stim/bus/out + one source branch). The matrix is
// ~97% zeros: the fill-reduced factorization touches only the structural
// nonzeros and the per-step solve only the L/U pattern. CI gates the
// timing by name through tools/bench-compare.py against the checked-in
// baseline.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"

namespace {

using namespace msbist::circuit;

constexpr std::size_t kCells = 94;  // 98 MNA unknowns

void build_macro_array(Netlist& n) {
  const NodeId stim = n.node("stim");
  const NodeId bus = n.node("bus");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(stim, kGround,
                       std::make_shared<SineWave>(2.5, 2.5, 50e3));
  n.add<Resistor>(stim, bus, 100.0);
  n.add<Resistor>(bus, out, 1e3);
  n.add<Resistor>(out, kGround, 10e3);
  n.add<Capacitor>(out, kGround, 10e-9);
  for (std::size_t i = 0; i < kCells; ++i) {
    const NodeId cell = n.node("cell" + std::to_string(i));
    n.add<Resistor>(bus, cell, 1e3 + 10.0 * static_cast<double>(i));
    n.add<Capacitor>(cell, kGround, 1e-9 + 1e-11 * static_cast<double>(i));
  }
}

void BM_MacroArrayTransient_Sparse(benchmark::State& state) {
  for (auto _ : state) {
    Netlist n;
    build_macro_array(n);
    TransientOptions opts;
    opts.dt = 100e-9;
    opts.t_stop = 50e-6;  // 500 steps
    benchmark::DoNotOptimize(transient(n, opts));
  }
  state.counters["unknowns"] = static_cast<double>(kCells + 4);
  state.counters["steps"] = 500;
}
BENCHMARK(BM_MacroArrayTransient_Sparse)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
