// Integration tests for the sparse MNA solver: agreement with an
// independent dense elimination of the same stamped system (the
// documented < 1e-9 relative gate — only elimination order differs),
// symbolic and pivot reuse across Newton steps and re-binds, and the
// rescue ladder running on the sparse path.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuit/dc.h"
#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/solver.h"
#include "circuit/workspace.h"
#include "core/error.h"
#include "dsp/matrix.h"

namespace msbist::circuit {
namespace {

constexpr std::size_t kCells = 47;

/// Bus-fed RC macro array: stim + bus + out + kCells cell nodes + one
/// source branch = 51 MNA unknowns at kCells = 47, the same topology
/// family as the collapse bench. Fully linear, so the fixed-dt transient
/// matrix is constant.
void build_macro_array(Netlist& n) {
  const NodeId stim = n.node("stim");
  const NodeId bus = n.node("bus");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(stim, kGround,
                       std::make_shared<SineWave>(2.5, 2.5, 50e3));
  n.name_last("VSTIM");
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

double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(SparseBackend, TransientMatchesDenseWithinDocumentedGate) {
  // Reference: the same system stamped through the public Stamper into a
  // dense matrix, gmin on the node diagonals, eliminated by the dense LU.
  // The fixture is linear, so solve_mna's answer is one direct solve and
  // the two differ only by elimination order.
  Netlist n;
  build_macro_array(n);
  const std::size_t unknowns = n.assign_unknowns();
  const NewtonOptions opts;
  StampContext dc;
  StampContext tran;
  tran.mode = StampContext::Mode::kTransient;
  tran.dt = 100e-9;
  tran.t = 100e-9;
  for (const StampContext& ctx : {dc, tran}) {
    dsp::Matrix g(unknowns, unknowns);
    std::vector<double> rhs(unknowns, 0.0);
    Stamper s(g, rhs);
    for (const auto& el : n.elements()) el->stamp(s, ctx);
    for (std::size_t node = 0; node < n.node_count(); ++node) {
      g(node, node) += opts.gmin;
    }
    const std::vector<double> dense = dsp::LuDecomposition(g).solve(rhs);
    SolverWorkspace ws;
    const std::vector<double> sparse = solve_mna(n, ctx, unknowns, {}, opts, ws);
    EXPECT_LT(max_rel_diff(dense, sparse), 1e-9)
        << (ctx.mode == StampContext::Mode::kDc ? "dc" : "transient");
  }
}

TEST(SparseBackend, FullyStaticSystemReusesSparseFactorization) {
  Netlist n;
  build_macro_array(n);
  const std::size_t unknowns = n.assign_unknowns();
  SolverWorkspace ws;
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 100e-9;
  NewtonOptions opts;
  std::vector<double> guess(unknowns, 0.0);
  for (int step = 0; step < 5; ++step) {
    ctx.t = 100e-9 * (step + 1);
    guess = solve_mna(n, ctx, unknowns, guess, opts, ws);
  }
  EXPECT_TRUE(ws.matrix_fully_static());
  EXPECT_EQ(ws.stats().lu_factorizations, 1u);
  EXPECT_EQ(ws.stats().lu_reuses, 4u);
  EXPECT_EQ(ws.stats().sparse_refactors, 0u);
}

TEST(SparseBackend, NonlinearNewtonReplaysPivotsInsteadOfRefactoring) {
  // A stable voltage-controlled switch makes the matrix dynamic: the
  // first iteration runs the pivoting factor(), every later iteration
  // replays the stored schedule (sparse_refactors counts them).
  Netlist n;
  build_macro_array(n);
  const NodeId out = n.find_node("out");
  const NodeId tap = n.node("tap");
  n.add<VoltageSwitch>(out, tap, out, kGround, /*threshold=*/1.0,
                       /*r_on=*/10.0, /*r_off=*/1e6);
  n.add<Resistor>(tap, kGround, 1e3);
  const std::size_t unknowns = n.assign_unknowns();
  SolverWorkspace ws;
  StampContext ctx;
  NewtonOptions opts;
  solve_mna(n, ctx, unknowns, {}, opts, ws);
  EXPECT_FALSE(ws.matrix_fully_static());
  EXPECT_GE(ws.stats().assemblies, 2u);
  // One pivoting factorization, the rest schedule replays.
  EXPECT_GE(ws.stats().sparse_refactors, ws.stats().assemblies - 1);
}

TEST(SparseBackend, RescueLadderRunsUnchangedOnSparsePath) {
  // Bistable comparator: no consistent DC state, so the whole ladder
  // (gmin ramp re-binds included) runs and exhausts with the typed
  // non-convergence verdict — and the gmin re-binds exercise symbolic
  // reuse across fingerprint changes.
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, 5.0);
  n.add<Resistor>(in, out, 1e3);
  n.add<VoltageSwitch>(out, kGround, out, kGround, /*threshold=*/2.5,
                       /*r_on=*/1.0, /*r_off=*/1e9);
  DcOptions opts;
  opts.newton.max_iterations = 60;
  opts.rescue.max_source_steps = 4;
  opts.rescue.max_gmin_steps = 2;
  core::ErrorCode code = core::ErrorCode::kNone;
  try {
    dc_operating_point(n, opts);
  } catch (const core::SolverError& e) {
    code = e.code();
  }
  EXPECT_EQ(code, core::ErrorCode::kNonConvergent);
}

TEST(SparseBackend, SingularSparseSystemClassifiesAsSingularMatrixError) {
  // Two voltage sources fighting over one node is structurally singular.
  // The sparse engine's runtime_error must classify as
  // core::SingularMatrixError, not a raw exception.
  Netlist n;
  const NodeId a = n.node("a");
  n.add<VoltageSource>(a, kGround, 1.0);
  n.add<VoltageSource>(a, kGround, 2.0);
  const std::size_t unknowns = n.assign_unknowns();
  NewtonOptions opts;
  StampContext ctx;
  SolverWorkspace ws;
  EXPECT_THROW(solve_mna(n, ctx, unknowns, {}, opts, ws), core::SingularMatrixError);
}

}  // namespace
}  // namespace msbist::circuit
