// Unit tests for the solver workspace: stamp caching, LU factorization
// reuse, and invalidation. The load-bearing property is bit-identity —
// every cached path must reproduce the from-scratch solve exactly (same
// doubles, not merely close), because golden waveform signatures and the
// batch engine's bit-identity guarantee both hash raw samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "circuit/dc.h"
#include "circuit/elements.h"
#include "circuit/mos.h"
#include "circuit/transient.h"
#include "circuit/workspace.h"
#include "faults/fault.h"

namespace msbist::circuit {
namespace {

// RC integrator driven by a sine: fully linear, constant matrix at fixed
// dt — the best case for LU reuse.
void build_rc(Netlist& n) {
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, std::make_shared<SineWave>(0.0, 1.0, 10e3));
  n.name_last("VIN");
  n.add<Resistor>(in, out, 1e3);
  n.add<Capacitor>(out, kGround, 100e-9);
}

// CMOS inverter with a load cap: nonlinear, every Newton iteration
// re-stamps the transistors.
void build_inverter(Netlist& n) {
  const NodeId vdd = n.node("vdd");
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(vdd, kGround, 5.0);
  n.add<VoltageSource>(in, kGround,
                       std::make_shared<PulseWave>(0.0, 5.0, 2e-6, 0.5e-6, 0.5e-6,
                                                   6e-6, 16e-6));
  n.name_last("VIN");
  n.add<Mosfet>(MosType::kNmos, out, in, kGround, MosParams::nmos_5um(10.0));
  n.add<Mosfet>(MosType::kPmos, out, in, vdd, MosParams::pmos_5um(30.0));
  n.add<Capacitor>(out, kGround, 1e-12);
}

// Switched path: TimedSwitch keeps the matrix time-varying even though
// the netlist is linear, exercising the dynamic-entry path.
void build_switched(Netlist& n) {
  const NodeId in = n.node("in");
  const NodeId mid = n.node("mid");
  n.add<VoltageSource>(in, kGround, 2.0);
  n.add<TimedSwitch>(in, mid, ClockWave(10e-6, 5e-6), 100.0, 1e9);
  n.add<Resistor>(mid, kGround, 10e3);
  n.add<Capacitor>(mid, kGround, 1e-9);
}

TransientResult run(void (*build)(Netlist&), bool cache, double dt, double t_stop) {
  Netlist n;
  build(n);
  TransientOptions opts;
  opts.dt = dt;
  opts.t_stop = t_stop;
  opts.solver_cache = cache;
  return transient(n, opts);
}

void expect_bit_identical(const TransientResult& a, const TransientResult& b) {
  ASSERT_EQ(a.samples(), b.samples());
  ASSERT_EQ(a.node_names(), b.node_names());
  for (const std::string& node : a.node_names()) {
    const auto& va = a.voltage(node);
    const auto& vb = b.voltage(node);
    for (std::size_t k = 0; k < va.size(); ++k) {
      // EXPECT_EQ on doubles: bit-identity, not tolerance.
      ASSERT_EQ(va[k], vb[k]) << node << " diverges at sample " << k;
    }
  }
  ASSERT_EQ(a.branch_names(), b.branch_names());
  for (const std::string& br : a.branch_names()) {
    const auto& ia = a.current(br);
    const auto& ib = b.current(br);
    for (std::size_t k = 0; k < ia.size(); ++k) {
      ASSERT_EQ(ia[k], ib[k]) << br << " diverges at sample " << k;
    }
  }
}

TEST(SolverCache, LinearWaveformBitIdentical) {
  const auto cached = run(build_rc, true, 1e-7, 2e-4);
  const auto reference = run(build_rc, false, 1e-7, 2e-4);
  expect_bit_identical(cached, reference);
  // Sanity: the circuit actually did something.
  EXPECT_GT(*std::max_element(cached.voltage("out").begin(),
                              cached.voltage("out").end()),
            0.1);
}

TEST(SolverCache, NonlinearWaveformBitIdentical) {
  const auto cached = run(build_inverter, true, 1e-8, 20e-6);
  const auto reference = run(build_inverter, false, 1e-8, 20e-6);
  expect_bit_identical(cached, reference);
  EXPECT_GT(*std::max_element(cached.voltage("out").begin(),
                              cached.voltage("out").end()),
            4.0);
}

TEST(SolverCache, TimedSwitchWaveformBitIdentical) {
  const auto cached = run(build_switched, true, 2e-7, 1e-4);
  const auto reference = run(build_switched, false, 2e-7, 1e-4);
  expect_bit_identical(cached, reference);
}

TEST(SolverCache, DcOperatingPointBitIdentical) {
  Netlist a;
  build_inverter(a);
  Netlist b;
  build_inverter(b);
  const DcResult cached = dc_operating_point(a);
  // dc_operating_point always runs through a workspace; the uncached
  // reference goes through solve_mna with caching disabled.
  DcOptions opts;
  const std::size_t unknowns = b.assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kDc;
  SolverWorkspace raw;
  raw.set_caching(false);
  const std::vector<double> ref =
      solve_mna(b, ctx, unknowns, std::vector<double>(unknowns, 0.0),
                opts.newton, raw);
  ASSERT_EQ(cached.raw().size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(cached.raw()[i], ref[i]);
}

TEST(SolverWorkspaceTest, LinearNetlistFactorsOnce) {
  Netlist n;
  build_rc(n);
  const std::size_t unknowns = n.assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 1e-7;

  SolverWorkspace ws;
  std::vector<double> state(unknowns, 0.0);
  for (int k = 1; k <= 50; ++k) {
    ctx.t = 1e-7 * k;
    state = solve_mna(n, ctx, unknowns, state, NewtonOptions{}, ws);
  }
  EXPECT_TRUE(ws.matrix_fully_static());
  EXPECT_FALSE(ws.nonlinear());
  EXPECT_EQ(ws.stats().binds, 1u);
  EXPECT_EQ(ws.stats().lu_factorizations, 1u);
  EXPECT_EQ(ws.stats().lu_reuses, 49u);
  EXPECT_EQ(ws.stats().assemblies, 50u);
}

TEST(SolverWorkspaceTest, NonlinearNetlistFactorsEveryIteration) {
  Netlist n;
  build_inverter(n);
  const std::size_t unknowns = n.assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 1e-8;
  ctx.t = 1e-8;

  SolverWorkspace ws;
  solve_mna(n, ctx, unknowns, std::vector<double>(unknowns, 0.0),
            NewtonOptions{}, ws);
  EXPECT_TRUE(ws.nonlinear());
  EXPECT_FALSE(ws.matrix_fully_static());
  EXPECT_EQ(ws.stats().lu_reuses, 0u);
  EXPECT_EQ(ws.stats().lu_factorizations, ws.stats().assemblies);
}

TEST(SolverWorkspaceTest, DtChangeRebinds) {
  Netlist n;
  build_rc(n);
  const std::size_t unknowns = n.assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 1e-7;
  ctx.t = 1e-7;

  SolverWorkspace ws;
  solve_mna(n, ctx, unknowns, std::vector<double>(unknowns, 0.0),
            NewtonOptions{}, ws);
  EXPECT_EQ(ws.stats().binds, 1u);
  EXPECT_EQ(ws.stats().lu_factorizations, 1u);

  // New dt changes the capacitor companion conductance: the cached base
  // and factorization are stale, and the fingerprint catches it.
  ctx.dt = 2e-7;
  ctx.t = 2e-7;
  const std::vector<double> fast = solve_mna(
      n, ctx, unknowns, std::vector<double>(unknowns, 0.0), NewtonOptions{}, ws);
  EXPECT_EQ(ws.stats().binds, 2u);
  EXPECT_EQ(ws.stats().lu_factorizations, 2u);

  // And the re-bound solve matches a fresh uncached workspace exactly.
  SolverWorkspace raw;
  raw.set_caching(false);
  const std::vector<double> ref = solve_mna(
      n, ctx, unknowns, std::vector<double>(unknowns, 0.0), NewtonOptions{}, raw);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(fast[i], ref[i]);
}

TEST(SolverWorkspaceTest, FaultInjectionRebindsHeldWorkspace) {
  Netlist n;
  build_rc(n);
  std::size_t unknowns = n.assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 1e-7;
  ctx.t = 1e-7;

  SolverWorkspace ws;
  solve_mna(n, ctx, unknowns, std::vector<double>(unknowns, 0.0),
            NewtonOptions{}, ws);
  EXPECT_EQ(ws.stats().binds, 1u);

  // Inject a stuck-at through the campaign API: adds clamp elements, so
  // the element/unknown counts shift and the fingerprint mismatches.
  faults::inject(n, faults::FaultSpec::stuck_at(1, false),
                 [](int) { return std::string("out"); });
  unknowns = n.assign_unknowns();
  const std::vector<double> faulty = solve_mna(
      n, ctx, unknowns, std::vector<double>(unknowns, 0.0), NewtonOptions{}, ws);
  EXPECT_EQ(ws.stats().binds, 2u);

  SolverWorkspace raw;
  raw.set_caching(false);
  const std::vector<double> ref = solve_mna(
      n, ctx, unknowns, std::vector<double>(unknowns, 0.0), NewtonOptions{}, raw);
  ASSERT_EQ(faulty.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(faulty[i], ref[i]);
  // The clamp actually drags the output low.
  EXPECT_LT(std::abs(faulty[static_cast<std::size_t>(n.find_node("out"))]), 0.1);
}

TEST(SolverWorkspaceTest, InvalidateRebuildsAfterParameterMutation) {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, 10.0);
  auto* r_top = n.add<Resistor>(in, out, 1e3);
  n.add<Resistor>(out, kGround, 1e3);
  const std::size_t unknowns = n.assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kDc;

  SolverWorkspace ws;
  std::vector<double> x = solve_mna(n, ctx, unknowns,
                                    std::vector<double>(unknowns, 0.0),
                                    NewtonOptions{}, ws);
  EXPECT_NEAR(x[static_cast<std::size_t>(out)], 5.0, 1e-6);

  // In-place parameter change: invisible to the fingerprint, so the
  // caller must invalidate. With the explicit invalidate the divider
  // reflects the new ratio; the binds counter shows the rebuild.
  r_top->set_resistance(3e3);
  ws.invalidate();
  x = solve_mna(n, ctx, unknowns, std::vector<double>(unknowns, 0.0),
                NewtonOptions{}, ws);
  EXPECT_EQ(ws.stats().binds, 2u);
  EXPECT_NEAR(x[static_cast<std::size_t>(out)], 2.5, 1e-6);
}

TEST(SolverWorkspaceTest, CachingToggleForcesRebind) {
  Netlist n;
  build_rc(n);
  const std::size_t unknowns = n.assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 1e-7;
  ctx.t = 1e-7;

  SolverWorkspace ws;
  solve_mna(n, ctx, unknowns, std::vector<double>(unknowns, 0.0),
            NewtonOptions{}, ws);
  EXPECT_TRUE(ws.matrix_fully_static());
  ws.set_caching(false);
  solve_mna(n, ctx, unknowns, std::vector<double>(unknowns, 0.0),
            NewtonOptions{}, ws);
  EXPECT_EQ(ws.stats().binds, 2u);
  EXPECT_FALSE(ws.matrix_fully_static());
}

TEST(SolverCache, DcSweepUnaffectedByCachedWorkspace) {
  // dc_sweep mutates a resistor per point through an arbitrary lambda;
  // the engine must invalidate per point or the sweep flatlines.
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, 10.0);
  n.add<Resistor>(in, out, 1e3);
  auto* r_bot = n.add<Resistor>(out, kGround, 1e3);

  const std::vector<double> values = {1e3, 3e3, 9e3};
  const auto sweep_result = dc_sweep(
      n, values,
      [&](Netlist&, double r) { r_bot->set_resistance(r); }, "out");
  ASSERT_TRUE(sweep_result.complete());
  const std::vector<double>& vout = sweep_result.values;
  ASSERT_EQ(vout.size(), 3u);
  EXPECT_NEAR(vout[0], 5.0, 1e-6);
  EXPECT_NEAR(vout[1], 7.5, 1e-6);
  EXPECT_NEAR(vout[2], 9.0, 1e-6);
}

}  // namespace
}  // namespace msbist::circuit
