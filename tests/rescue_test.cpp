// Robustness corpus: pathological netlists driven through the
// convergence-rescue ladder (circuit/rescue.h) and the typed failure
// taxonomy (core/error.h), plus the graceful-degradation contracts of the
// layers above (campaigns, BIST tiers).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "adc/dual_slope.h"
#include "analysis/diagnostic.h"
#include "bist/controller.h"
#include "circuit/dc.h"
#include "circuit/elements.h"
#include "circuit/mos.h"
#include "circuit/rescue.h"
#include "circuit/solver.h"
#include "circuit/transient.h"
#include "circuit/workspace.h"
#include "core/error.h"
#include "core/outcome.h"
#include "faults/campaign.h"
#include "faults/universe.h"

namespace msbist {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;

/// Newton oscillator: when active, injects a current whose *sign* flips
/// with the iterate (target solution jumps between +-i/g_anchor), so no
/// fixed point exists and the iteration orbits forever. Activity can be
/// gated on the transient step size (dt_threshold) to exercise the
/// timestep-halving rung, or forced for DC via set_dc_active. The stamp
/// footprint (one conductance, one RHS write) is iterate-independent as
/// the Element contract requires; only the written values vary.
class OscillatorElement final : public circuit::Element {
 public:
  OscillatorElement(NodeId node, double dt_threshold, bool dc_active)
      : node_(node), dt_threshold_(dt_threshold), dc_active_(dc_active) {}

  void set_dc_active(bool active) { dc_active_ = active; }

  void stamp(circuit::Stamper& s, const circuit::StampContext& ctx) const override {
    s.conductance(node_, kGround, 1e-3);  // anchor: matrix stays regular
    // The t > 0 gate keeps the element quiescent during the consistent
    // initial-point solve (which runs at full dt but t = t_start).
    const bool active = ctx.mode == circuit::StampContext::Mode::kTransient
                            ? ctx.dt > dt_threshold_ && ctx.t > 0.0
                            : dc_active_;
    double i = 0.0;
    if (active) {
      const double v = circuit::Stamper::voltage(ctx, node_);
      i = v >= 0.0 ? 1.0 : -1.0;  // target flips sign with the iterate
    }
    s.current(node_, kGround, i);
  }
  std::vector<NodeId> terminals() const override { return {node_, kGround}; }
  std::vector<std::pair<int, int>> dc_paths() const override { return {{0, 1}}; }
  bool nonlinear() const override { return true; }

 private:
  NodeId node_;
  double dt_threshold_;
  bool dc_active_;
};

/// Poison element: once the node moves off zero, its injected current
/// overflows to Inf, so the next Newton iterate goes non-finite. Probes
/// the divergence guard (abort on first poisoned update, not after the
/// full iteration budget).
class PoisonElement final : public circuit::Element {
 public:
  explicit PoisonElement(NodeId node) : node_(node) {}

  void stamp(circuit::Stamper& s, const circuit::StampContext& ctx) const override {
    s.conductance(node_, kGround, 1e-3);
    const double v = circuit::Stamper::voltage(ctx, node_);
    s.current(node_, kGround, v * 1e308 * 1e10);  // Inf for any v != 0
  }
  std::vector<NodeId> terminals() const override { return {node_, kGround}; }
  std::vector<std::pair<int, int>> dc_paths() const override { return {{0, 1}}; }
  bool nonlinear() const override { return true; }

 private:
  NodeId node_;
};

/// A comparator wired in inverting feedback with no consistent DC state:
/// switch closed pulls `out` below threshold (so it must open), open lets
/// `out` rise above it (so it must close). Deterministically
/// non-convergent at the caller's gmin.
void build_bistable(Netlist& n) {
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<circuit::VoltageSource>(in, kGround, 5.0);
  n.add<circuit::Resistor>(in, out, 1e3);
  n.add<circuit::VoltageSwitch>(out, kGround, out, kGround,
                                /*threshold=*/2.5, /*r_on=*/1.0,
                                /*r_off=*/1e9);
}

circuit::DcOptions fast_dc_options() {
  circuit::DcOptions opts;
  opts.newton.max_iterations = 60;
  opts.rescue.max_source_steps = 4;
  opts.rescue.max_gmin_steps = 2;
  return opts;
}

// ---------------------------------------------------------------------------
// Typed taxonomy at the solver boundary
// ---------------------------------------------------------------------------

TEST(FailureTaxonomy, BistableDcExhaustsLadderWithNonConvergent) {
  Netlist n;
  build_bistable(n);
  circuit::DcOptions opts = fast_dc_options();
  try {
    circuit::dc_operating_point(n, opts);
    FAIL() << "expected NonConvergentError";
  } catch (const core::NonConvergentError& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kNonConvergent);
    EXPECT_EQ(e.failure().analysis, "dc_operating_point");
    EXPECT_NE(e.failure().detail.find("rescue ladder exhausted"),
              std::string::npos);
    EXPECT_GT(e.failure().iterations, 0);
    EXPECT_FALSE(e.failure().worst_node.empty());
  }
}

TEST(FailureTaxonomy, ConflictingSourcesAreSingularAfterFullLadder) {
  // Two contradicting voltage sources in parallel: the branch rows are
  // linearly dependent at any gmin (the leak only lands on node
  // diagonals) and at any source scale — genuinely unrescuable.
  Netlist n;
  const NodeId a = n.node("a");
  n.add<circuit::VoltageSource>(a, kGround, 5.0);
  n.add<circuit::VoltageSource>(a, kGround, 3.0);
  circuit::DcOptions opts = fast_dc_options();
  opts.erc = false;  // the ERC would reject this before the solver
  try {
    circuit::dc_operating_point(n, opts);
    FAIL() << "expected SingularMatrixError";
  } catch (const core::SingularMatrixError& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kSingularMatrix);
    EXPECT_NE(e.failure().detail.find("rescue ladder exhausted"),
              std::string::npos);
  }
}

TEST(FailureTaxonomy, FloatingMosGateRejectedByErcBeforeSolving) {
  Netlist n;
  const NodeId vdd = n.node("vdd");
  const NodeId out = n.node("out");
  const NodeId gate = n.node("gate");
  n.add<circuit::VoltageSource>(vdd, kGround, 5.0);
  n.add<circuit::Resistor>(vdd, out, 10e3);
  n.add<circuit::Mosfet>(circuit::MosType::kNmos, out, gate, kGround,
                         circuit::MosParams::nmos_5um());
  n.add<circuit::Capacitor>(gate, kGround, 1e-12);  // gate floats at DC
  EXPECT_THROW(circuit::dc_operating_point(n), analysis::ErcError);
}

TEST(FailureTaxonomy, DivergenceGuardAbortsLongBeforeIterationBudget) {
  Netlist n;
  const NodeId v = n.node("v");
  n.add<circuit::CurrentSource>(kGround, v, 1e-3);  // push the node off 0
  n.add<PoisonElement>(v);
  circuit::DcOptions opts;
  opts.newton.max_iterations = 500;
  opts.rescue.enable = false;  // probe the raw guard, not the ladder
  try {
    circuit::dc_operating_point(n, opts);
    FAIL() << "expected NumericOverflowError";
  } catch (const core::NumericOverflowError& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kNumericOverflow);
    // First poisoned update aborts the attempt: a handful of iterations,
    // never the 500-iteration budget.
    EXPECT_LE(e.failure().iterations, 5);
  }
}

TEST(FailureTaxonomy, FailureJsonCarriesStructuredFields) {
  Netlist n;
  build_bistable(n);
  circuit::DcOptions opts = fast_dc_options();
  try {
    circuit::dc_operating_point(n, opts);
    FAIL() << "expected SolverError";
  } catch (const core::SolverError& e) {
    core::JsonWriter w;
    e.failure().to_json(w);
    const std::string json = w.str();
    EXPECT_NE(json.find("\"code\":\"non_convergent\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"analysis\":\"dc_operating_point\""),
              std::string::npos);
    EXPECT_NE(json.find("\"worst_node\""), std::string::npos);
    EXPECT_NE(json.find("\"iterations\""), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Rescue ladder mechanics
// ---------------------------------------------------------------------------

TEST(RescueLadder, DtHalvingRescuesStiffStep) {
  // Oscillates at the full dt = 1 ms, behaves linearly below 0.75 ms: the
  // direct attempt and the gmin rung must fail, the first halving (dt/2 =
  // 0.5 ms) must succeed, on every step.
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<circuit::VoltageSource>(in, kGround, 5.0);
  n.add<circuit::Resistor>(in, out, 1e3);
  n.add<OscillatorElement>(out, /*dt_threshold=*/0.75e-3, /*dc_active=*/false);

  circuit::TransientOptions opts;
  opts.dt = 1e-3;
  opts.t_stop = 3e-3;
  opts.newton.max_iterations = 60;
  opts.rescue.max_gmin_steps = 2;
  const circuit::TransientResult res = circuit::transient(n, opts);

  ASSERT_EQ(res.samples(), 4u);
  // Anchor 1e-3 S vs 1 kohm: a clean divider once the oscillator is
  // quiescent.
  EXPECT_NEAR(res.voltage("out").back(), 2.5, 1e-6);
  const circuit::RescueTrace& trace = res.rescue();
  EXPECT_TRUE(trace.used());
  EXPECT_EQ(trace.rescued_points, 3u);  // every step needed the ladder
  // Per step: direct fail, gmin fail, dt-halving success.
  ASSERT_EQ(trace.attempts.size(), 9u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(trace.attempts[3 * k].stage,
              circuit::RescueAttempt::Stage::kDirect);
    EXPECT_FALSE(trace.attempts[3 * k].succeeded);
    EXPECT_EQ(trace.attempts[3 * k + 1].stage,
              circuit::RescueAttempt::Stage::kGminStep);
    EXPECT_FALSE(trace.attempts[3 * k + 1].succeeded);
    EXPECT_EQ(trace.attempts[3 * k + 2].stage,
              circuit::RescueAttempt::Stage::kDtHalving);
    EXPECT_TRUE(trace.attempts[3 * k + 2].succeeded);
    EXPECT_DOUBLE_EQ(trace.attempts[3 * k + 2].parameter, 0.5e-3);
  }
}

TEST(RescueLadder, DtHalvingKeepsCapacitorStateConsistent) {
  // Same stiff step with a real storage element riding along: the halved
  // substeps advance the capacitor themselves (checkpoint/rollback +
  // per-substep accepts), so the waveform must still be a clean monotone
  // RC charge toward the divider voltage.
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<circuit::VoltageSource>(in, kGround, 5.0);
  n.add<circuit::Resistor>(in, out, 1e3);
  n.add<circuit::Capacitor>(out, kGround, 1e-6);
  n.add<OscillatorElement>(out, /*dt_threshold=*/0.75e-3, /*dc_active=*/false);

  circuit::TransientOptions opts;
  opts.dt = 1e-3;
  opts.t_stop = 10e-3;
  opts.use_initial_conditions = true;  // start from 0 V, watch the charge
  opts.newton.max_iterations = 60;
  opts.rescue.max_gmin_steps = 2;
  const circuit::TransientResult res = circuit::transient(n, opts);

  const std::vector<double>& v = res.voltage("out");
  for (std::size_t k = 1; k < v.size(); ++k) {
    EXPECT_GT(v[k], v[k - 1] - 1e-12) << "k=" << k;
    EXPECT_LT(v[k], 2.5 + 1e-6);
  }
  EXPECT_GT(v.back(), 2.0);  // several RC constants in: close to final
  EXPECT_EQ(res.rescue().rescued_points, 10u);
}

TEST(RescueLadder, TransientExhaustionReportsFailingTime) {
  Netlist n;
  const NodeId out = n.node("out");
  n.add<circuit::CurrentSource>(kGround, out, 1e-6);
  n.add<OscillatorElement>(out, /*dt_threshold=*/0.0, /*dc_active=*/false);

  circuit::TransientOptions opts;
  opts.dt = 1e-3;
  opts.t_stop = 5e-3;
  opts.newton.max_iterations = 50;
  opts.rescue.max_gmin_steps = 2;
  opts.rescue.max_dt_halvings = 2;
  try {
    circuit::transient(n, opts);
    FAIL() << "expected NonConvergentError";
  } catch (const core::NonConvergentError& e) {
    EXPECT_EQ(e.failure().analysis, "transient");
    ASSERT_TRUE(e.failure().has_time);
    EXPECT_DOUBLE_EQ(e.failure().time_s, 1e-3);  // dies on the first step
    EXPECT_NE(e.failure().detail.find("rescue ladder exhausted"),
              std::string::npos);
  }
}

TEST(RescueLadder, CleanNetlistsAreBitIdenticalWithLadderOnOrOff) {
  // A netlist that never fails must never enter the ladder, so enabling
  // it cannot perturb a single bit of the waveform.
  const auto run = [](bool enable) {
    Netlist n;
    const NodeId in = n.node("in");
    const NodeId out = n.node("out");
    n.add<circuit::VoltageSource>(in, kGround, 5.0);
    n.add<circuit::Resistor>(in, out, 10e3);
    n.add<circuit::Capacitor>(out, kGround, 100e-9);
    circuit::TransientOptions opts;
    opts.dt = 1e-5;
    opts.t_stop = 2e-3;
    opts.rescue.enable = enable;
    return circuit::transient(n, opts);
  };
  const circuit::TransientResult with = run(true);
  const circuit::TransientResult without = run(false);
  EXPECT_FALSE(with.rescue().used());
  ASSERT_EQ(with.samples(), without.samples());
  const std::vector<double>& a = with.voltage("out");
  const std::vector<double>& b = without.voltage("out");
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], b[k]) << "sample " << k;  // exact, not NEAR
  }
}

TEST(RescueLadder, MosSweepBitIdenticalWithLadderOnOrOff) {
  const auto run = [](bool enable) {
    Netlist n;
    const NodeId vdd = n.node("vdd");
    const NodeId out = n.node("out");
    const NodeId gate = n.node("g");
    n.add<circuit::VoltageSource>(vdd, kGround, 5.0);
    auto* vin = n.add<circuit::VoltageSource>(gate, kGround, 0.0);
    n.add<circuit::Resistor>(vdd, out, 20e3);
    n.add<circuit::Mosfet>(circuit::MosType::kNmos, out, gate, kGround,
                           circuit::MosParams::nmos_5um());
    std::vector<double> sweep;
    for (int i = 0; i <= 25; ++i) sweep.push_back(5.0 * i / 25.0);
    circuit::DcOptions opts;
    opts.rescue.enable = enable;
    return circuit::dc_sweep(
        n, sweep, [&](Netlist&, double v) { vin->set_dc(v); }, "out", opts);
  };
  const circuit::DcSweepResult with = run(true);
  const circuit::DcSweepResult without = run(false);
  ASSERT_TRUE(with.complete());
  ASSERT_EQ(with.values.size(), without.values.size());
  for (std::size_t k = 0; k < with.values.size(); ++k) {
    EXPECT_EQ(with.values[k], without.values[k]) << "point " << k;
  }
}

// ---------------------------------------------------------------------------
// Workspace fingerprint regression (gmin participates in cache identity)
// ---------------------------------------------------------------------------

TEST(Workspace, GminChangeInvalidatesCachedStampsAndLu) {
  // One current source against nothing but the gmin leak: v = I / gmin.
  // If gmin were missing from the workspace fingerprint, the second call
  // would reuse the stale factorization and return the first voltage.
  Netlist n;
  const NodeId v = n.node("v");
  n.add<circuit::CurrentSource>(kGround, v, 1e-6);
  const std::size_t unknowns = n.assign_unknowns();
  circuit::StampContext ctx;
  circuit::SolverWorkspace ws;

  circuit::NewtonOptions newton;
  newton.gmin = 1e-6;
  std::vector<double> x1 = circuit::solve_mna(n, ctx, unknowns, {}, newton, ws);
  EXPECT_NEAR(x1[0], 1.0, 1e-9);

  newton.gmin = 1e-3;
  std::vector<double> x2 = circuit::solve_mna(n, ctx, unknowns, {}, newton, ws);
  EXPECT_NEAR(x2[0], 1e-3, 1e-12);
  EXPECT_EQ(ws.stats().binds, 2u) << "gmin change must rebind the workspace";
}

// ---------------------------------------------------------------------------
// dc_sweep: failed points recorded, never dropped
// ---------------------------------------------------------------------------

TEST(DcSweep, FailedPointRecordedAndSweepContinues) {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  auto* vin = n.add<circuit::VoltageSource>(in, kGround, 0.0);
  n.add<circuit::Resistor>(in, out, 1e3);
  auto* osc =
      n.add<OscillatorElement>(out, /*dt_threshold=*/0.0, /*dc_active=*/false);

  const std::vector<double> values{0.0, 1.0, 2.0, 3.0, 4.0};
  circuit::DcOptions opts = fast_dc_options();
  const circuit::DcSweepResult res = circuit::dc_sweep(
      n, values,
      [&](Netlist&, double v) {
        vin->set_dc(v);
        osc->set_dc_active(v == 2.0);  // exactly one unsolvable point
      },
      "out", opts);

  ASSERT_EQ(res.values.size(), 5u);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_FALSE(res.complete());
  EXPECT_TRUE(std::isnan(res.values[2]));
  EXPECT_EQ(res.failures[0].index, 2u);
  EXPECT_DOUBLE_EQ(res.failures[0].value, 2.0);
  EXPECT_EQ(res.failures[0].failure.code, core::ErrorCode::kNonConvergent);
  EXPECT_TRUE(res.failures[0].failure.has_sweep_value);
  EXPECT_DOUBLE_EQ(res.failures[0].failure.sweep_value, 2.0);
  // The surviving points are the plain dividers (anchor 1e-3 S vs 1 kohm).
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}}) {
    EXPECT_NEAR(res.values[k], values[k] / 2.0, 1e-6) << "point " << k;
  }
}

// ---------------------------------------------------------------------------
// BIST: failures become failing verdicts with diagnostics
// ---------------------------------------------------------------------------

TEST(BistRobustness, UnknownTierFailsWithBadInputRecord) {
  adc::DualSlopeAdc adc(adc::DualSlopeAdcConfig::ideal());
  const bist::BistController ctrl = bist::BistController::typical();
  bist::BistReport report;
  const core::Outcome verdict =
      ctrl.run_tier(static_cast<bist::Tier>(99), adc, report);
  EXPECT_FALSE(verdict.pass);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].code, core::ErrorCode::kBadInput);
  const std::string json = core::to_json(report);
  EXPECT_NE(json.find("\"bad_input\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaign acceptance: 240 faults, >= 5 convergence killers, zero
// uncaught exceptions, parallel bit-identical to serial
// ---------------------------------------------------------------------------

TEST(CampaignRobustness, ConvergenceKillersClassifiedDetectedByFailure) {
  const std::vector<faults::FaultSpec> universe =
      faults::all_single_stuck(1, 120);
  ASSERT_EQ(universe.size(), 240u);

  // Faults on every 24th node model hard shorts that leave the macro with
  // no consistent operating point: the simulation itself fails, and that
  // failure *is* the detection.
  const auto is_killer = [](const faults::FaultSpec& f) {
    return f.node_a % 24 == 0;
  };
  std::size_t killer_count = 0;
  for (const auto& f : universe) killer_count += is_killer(f) ? 1 : 0;
  ASSERT_GE(killer_count, 5u);

  const faults::FaultTestFn probe = [&](const faults::FaultSpec& f) {
    if (is_killer(f)) {
      Netlist n;
      build_bistable(n);
      circuit::dc_operating_point(n, fast_dc_options());  // throws
    }
    faults::FaultResult r;
    r.fault = f;
    r.detected = true;
    r.score = static_cast<double>(f.node_a) + (f.stuck_high ? 0.5 : 0.0);
    r.detail = "delta above threshold";
    return r;
  };

  const faults::CampaignReport serial = faults::run_campaign(universe, probe);
  faults::CampaignOptions par_opts;
  par_opts.threads = 8;
  const faults::CampaignReport parallel =
      faults::run_campaign_parallel(universe, probe, par_opts);

  // Zero uncaught exceptions, full classification.
  EXPECT_EQ(serial.results.size(), 240u);
  EXPECT_EQ(serial.detected_count, 240u);
  EXPECT_EQ(serial.detected_by_failure_count, killer_count);
  EXPECT_EQ(serial.errored_count, 0u);
  EXPECT_EQ(serial.timed_out_count, 0u);
  EXPECT_TRUE(serial.outcome().pass) << serial.outcome().detail;

  // The parallel engine must agree byte-for-byte on every outcome field.
  EXPECT_EQ(serial.canonical_outcomes(), parallel.canonical_outcomes());
  EXPECT_EQ(parallel.detected_by_failure_count, killer_count);

  // Spot-check one killer's structured record.
  const faults::FaultResult* killer = nullptr;
  for (const auto& r : serial.results) {
    if (r.detected_by_failure) {
      killer = &r;
      break;
    }
  }
  ASSERT_NE(killer, nullptr);
  EXPECT_EQ(killer->classify(), faults::FaultOutcome::kDetectedByFailure);
  ASSERT_TRUE(killer->has_failure);
  EXPECT_EQ(killer->failure.code, core::ErrorCode::kNonConvergent);
  const std::string json = core::to_json(*killer);
  EXPECT_NE(json.find("\"outcome\":\"detected_by_failure\""),
            std::string::npos);
  EXPECT_NE(json.find("\"code\":\"non_convergent\""), std::string::npos);
}

}  // namespace
}  // namespace msbist
