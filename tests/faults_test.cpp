// Unit tests for fault models, universes, injection and campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "analog/opamp.h"
#include "circuit/dc.h"
#include "circuit/elements.h"
#include "faults/campaign.h"
#include "faults/fault.h"
#include "faults/universe.h"

namespace msbist::faults {
namespace {

TEST(Universe, Op1HasSixteenFaults) {
  const auto u = op1_fault_universe();
  EXPECT_EQ(u.size(), 16u);
  int singles = 0, doubles = 0;
  for (const auto& f : u) {
    if (f.kind == FaultKind::kStuckAt0 || f.kind == FaultKind::kStuckAt1) ++singles;
    if (f.kind == FaultKind::kDoubleStuck) ++doubles;
  }
  EXPECT_EQ(singles, 10);  // nodes 4, 5, 7, 8, 3 x two polarities
  EXPECT_EQ(doubles, 6);   // pairs 8-9, 5-8, 4-6 x two polarities
}

TEST(Universe, ScHasTwelveFaults) {
  const auto u = sc_fault_universe();
  EXPECT_EQ(u.size(), 12u);
  int singles = 0, bridges = 0;
  for (const auto& f : u) {
    if (f.kind == FaultKind::kStuckAt0 || f.kind == FaultKind::kStuckAt1) ++singles;
    if (f.kind == FaultKind::kBridge) ++bridges;
  }
  EXPECT_EQ(singles, 10);  // integrator nodes 4, 5, 7, 8, 9
  EXPECT_EQ(bridges, 2);   // 6-7 and 5-8
}

TEST(Universe, LabelsAreUnique) {
  for (const auto& universe : {op1_fault_universe(), sc_fault_universe()}) {
    std::vector<std::string> labels;
    for (const auto& f : universe) labels.push_back(f.label);
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(std::adjacent_find(labels.begin(), labels.end()), labels.end());
  }
}

TEST(Universe, AllSingleStuckRange) {
  const auto u = all_single_stuck(1, 9);
  EXPECT_EQ(u.size(), 18u);
  EXPECT_THROW(all_single_stuck(5, 3), std::invalid_argument);
}

TEST(Inject, StuckAtClampsNode) {
  circuit::Netlist n;
  const circuit::NodeId a = n.node("victim");
  n.add<circuit::VoltageSource>(n.node("drv0"), circuit::kGround, 2.0);
  n.add<circuit::Resistor>(n.find_node("drv0"), a, 10e3);
  inject(n, FaultSpec::stuck_at(1, /*high=*/false),
         [](int) { return std::string("victim"); });
  const circuit::DcResult op = circuit::dc_operating_point(n);
  // 10 ohm clamp against a 10 kohm driver: node pinned near 0 V.
  EXPECT_NEAR(op.voltage("victim"), 0.0, 0.01);
}

TEST(Inject, StuckAt1ClampsHigh) {
  circuit::Netlist n;
  const circuit::NodeId a = n.node("victim");
  n.add<circuit::Resistor>(a, circuit::kGround, 10e3);
  inject(n, FaultSpec::stuck_at(1, /*high=*/true),
         [](int) { return std::string("victim"); });
  const circuit::DcResult op = circuit::dc_operating_point(n);
  EXPECT_NEAR(op.voltage("victim"), 5.0, 0.01);
}

TEST(Inject, BridgeTiesNodes) {
  circuit::Netlist n;
  const circuit::NodeId a = n.node("na");
  const circuit::NodeId b = n.node("nb");
  n.add<circuit::VoltageSource>(a, circuit::kGround, 4.0);
  n.add<circuit::Resistor>(b, circuit::kGround, 1e6);
  inject(n, FaultSpec::bridge(1, 2), [](int node) {
    return node == 1 ? std::string("na") : std::string("nb");
  });
  const circuit::DcResult op = circuit::dc_operating_point(n);
  // 50 ohm bridge against 1 Mohm to ground: nb pulled to ~4 V.
  EXPECT_NEAR(op.voltage("nb"), 4.0, 0.01);
}

TEST(Inject, DoubleStuckClampsBoth) {
  circuit::Netlist n;
  n.add<circuit::Resistor>(n.node("na"), circuit::kGround, 1e5);
  n.add<circuit::Resistor>(n.node("nb"), circuit::kGround, 1e5);
  inject(n, FaultSpec::double_stuck(1, 2, true), [](int node) {
    return node == 1 ? std::string("na") : std::string("nb");
  });
  const circuit::DcResult op = circuit::dc_operating_point(n);
  EXPECT_NEAR(op.voltage("na"), 5.0, 0.01);
  EXPECT_NEAR(op.voltage("nb"), 5.0, 0.01);
}

TEST(Inject, RequiresNodeMap) {
  circuit::Netlist n;
  n.node("x");
  EXPECT_THROW(inject(n, FaultSpec::stuck_at(1, false), nullptr),
               std::invalid_argument);
}

TEST(Inject, FaultOnOp1NodeChangesOperatingPoint) {
  // The mechanism end to end: inject SA0 at the OP1 bias node and verify
  // the DC operating point moves.
  circuit::Netlist clean_net;
  const analog::Op1Nodes nodes = analog::build_op1(clean_net);
  clean_net.add<circuit::VoltageSource>(clean_net.find_node(nodes.in_plus),
                                        circuit::kGround, 2.5);
  clean_net.add<circuit::VoltageSource>(clean_net.find_node(nodes.in_minus),
                                        circuit::kGround, 2.5);
  const double clean_bias = circuit::dc_operating_point(clean_net).voltage(nodes.bias_p);

  circuit::Netlist faulty_net;
  const analog::Op1Nodes fnodes = analog::build_op1(faulty_net);
  faulty_net.add<circuit::VoltageSource>(faulty_net.find_node(fnodes.in_plus),
                                         circuit::kGround, 2.5);
  faulty_net.add<circuit::VoltageSource>(faulty_net.find_node(fnodes.in_minus),
                                         circuit::kGround, 2.5);
  inject(faulty_net, FaultSpec::stuck_at(4, false),
         [fnodes](int k) { return fnodes.numbered(k); });
  const double faulty_bias =
      circuit::dc_operating_point(faulty_net).voltage(fnodes.bias_p);
  EXPECT_GT(clean_bias, 2.0);
  EXPECT_LT(faulty_bias, 0.1);
}

TEST(Campaign, CountsDetections) {
  const auto universe = sc_fault_universe();
  const CampaignReport rep = run_campaign(universe, [](const FaultSpec& f) {
    FaultResult r;
    r.fault = f;
    r.detected = f.kind != FaultKind::kBridge;  // pretend bridges escape
    return r;
  });
  EXPECT_EQ(rep.results.size(), 12u);
  EXPECT_EQ(rep.detected_count, 10u);
  EXPECT_NEAR(rep.coverage(), 10.0 / 12.0, 1e-12);
}

TEST(Campaign, EmptyUniverse) {
  const CampaignReport rep = run_campaign({}, [](const FaultSpec& f) {
    FaultResult r;
    r.fault = f;
    return r;
  });
  EXPECT_DOUBLE_EQ(rep.coverage(), 0.0);
}

// --- Parallel engine ---

// Deterministic probe: every outcome field derives from the spec alone, so
// serial and parallel campaigns must agree bit for bit.
FaultResult deterministic_probe(const FaultSpec& f) {
  FaultResult r;
  r.fault = f;
  r.score = 10.0 * f.node_a + f.node_b + (f.stuck_high ? 0.5 : 0.0);
  r.detected = f.kind != FaultKind::kBridge;
  r.detail = "probe:" + f.label;
  return r;
}

std::vector<FaultSpec> combined_universe() {
  std::vector<FaultSpec> u = op1_fault_universe();
  const auto sc = sc_fault_universe();
  u.insert(u.end(), sc.begin(), sc.end());
  return u;
}

TEST(CampaignParallel, MatchesSerialAtAnyThreadCount) {
  const auto universe = combined_universe();
  const CampaignReport serial = run_campaign(universe, deterministic_probe);
  for (std::size_t threads : {1u, 2u, 8u}) {
    CampaignOptions opts;
    opts.threads = threads;
    const CampaignReport par =
        run_campaign_parallel(universe, deterministic_probe, opts);
    EXPECT_EQ(par.canonical_outcomes(), serial.canonical_outcomes())
        << "threads=" << threads;
    EXPECT_EQ(par.results.size(), serial.results.size());
    EXPECT_EQ(par.detected_count, serial.detected_count);
    ASSERT_EQ(par.results.size(), universe.size());
    for (std::size_t i = 0; i < universe.size(); ++i) {
      EXPECT_EQ(par.results[i].fault.label, universe[i].label);  // order
      EXPECT_DOUBLE_EQ(par.results[i].score, serial.results[i].score);
    }
  }
}

TEST(CampaignParallel, EmptyUniverse) {
  const CampaignReport rep = run_campaign_parallel({}, deterministic_probe);
  EXPECT_TRUE(rep.results.empty());
  EXPECT_DOUBLE_EQ(rep.coverage(), 0.0);
}

TEST(CampaignParallel, ZeroThreadsUsesHardwareConcurrency) {
  CampaignOptions opts;
  opts.threads = 0;
  const CampaignReport rep =
      run_campaign_parallel(sc_fault_universe(), deterministic_probe, opts);
  EXPECT_GE(rep.threads_used, 1u);
  EXPECT_EQ(rep.results.size(), 12u);
}

// A throwing test is a per-fault failure, not a campaign abort — and the
// serial and parallel engines capture it identically.
FaultResult throwing_probe(const FaultSpec& f) {
  if (f.kind == FaultKind::kBridge) {
    throw std::runtime_error("solver exploded on " + f.label);
  }
  return deterministic_probe(f);
}

TEST(Campaign, SerialIsolatesThrowingTest) {
  const auto universe = sc_fault_universe();
  const CampaignReport rep = run_campaign(universe, throwing_probe);
  ASSERT_EQ(rep.results.size(), 12u);
  EXPECT_EQ(rep.detected_count, 10u);
  EXPECT_EQ(rep.errored_count, 2u);
  for (const auto& r : rep.results) {
    if (r.fault.kind == FaultKind::kBridge) {
      EXPECT_FALSE(r.detected);
      EXPECT_TRUE(r.errored);
      EXPECT_EQ(r.detail, "solver exploded on " + r.fault.label);
    } else {
      EXPECT_FALSE(r.errored);
    }
  }
}

TEST(CampaignParallel, IsolatesThrowingTestIdenticallyToSerial) {
  const auto universe = sc_fault_universe();
  const CampaignReport serial = run_campaign(universe, throwing_probe);
  CampaignOptions opts;
  opts.threads = 4;
  const CampaignReport par =
      run_campaign_parallel(universe, throwing_probe, opts);
  EXPECT_EQ(par.canonical_outcomes(), serial.canonical_outcomes());
  EXPECT_EQ(par.errored_count, 2u);
}

TEST(Campaign, ProgressCallbackFiresOncePerFault) {
  const auto universe = combined_universe();
  for (const bool parallel : {false, true}) {
    std::mutex mu;
    std::vector<std::size_t> indices;
    std::size_t total_seen = 0;
    CampaignOptions opts;
    opts.threads = 4;
    // The completion hook fires from worker threads when parallel.
    opts.on_fault_complete = [&](std::size_t index, std::size_t total,
                                 const FaultResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      indices.push_back(index);
      total_seen = total;
      EXPECT_FALSE(r.fault.label.empty());
    };
    const CampaignReport rep =
        parallel ? run_campaign_parallel(universe, deterministic_probe, opts)
                 : run_campaign(universe, deterministic_probe, opts);
    EXPECT_EQ(rep.results.size(), universe.size());
    ASSERT_EQ(indices.size(), universe.size()) << "parallel=" << parallel;
    EXPECT_EQ(total_seen, universe.size());
    // Every fault completes exactly once; the serial engine completes
    // them in universe order.
    if (parallel) std::sort(indices.begin(), indices.end());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(indices[i], i);
    }
  }
}

TEST(Campaign, ReportsElapsedAndThroughput) {
  const auto universe = sc_fault_universe();
  const CampaignReport rep = run_campaign(universe, deterministic_probe);
  EXPECT_GT(rep.wall_seconds, 0.0);
  EXPECT_GE(rep.cpu_seconds, 0.0);
  EXPECT_GT(rep.faults_per_second(), 0.0);
  for (const auto& r : rep.results) EXPECT_GE(r.elapsed_seconds, 0.0);
  const std::string summary = rep.throughput_summary();
  EXPECT_NE(summary.find("12 faults"), std::string::npos);
  EXPECT_NE(summary.find("faults/s"), std::string::npos);
}

}  // namespace
}  // namespace msbist::faults
