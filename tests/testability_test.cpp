// Static testability engine: SCOAP-style scoring, fault-universe
// collapsing, and the campaign integration.
//
// The collapse tests run on purpose-built harness netlists rather than
// the paper circuits: a closed-loop op-amp has almost no exact structural
// redundancy (every node is distinct), so the harnesses plant the exact
// situations the rules target — a symmetric node pair, an unobservable
// island, faults folding onto each other — and the campaign tests then
// prove the collapsed run is bit-identical to the full one with a real
// DC-solving test function.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/runner.h"
#include "analysis/testability.h"
#include "analysis/topology.h"
#include "circuit/dc.h"
#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "core/outcome.h"
#include "faults/campaign.h"
#include "faults/collapse.h"
#include "faults/universe.h"
#include "production/batch.h"

namespace {

using namespace msbist;
using circuit::kGround;

static_assert(core::Serializable<analysis::TestabilityReport>);
static_assert(core::Serializable<faults::CollapsedUniverse>);

/// Paper node number k -> harness node name "nk".
faults::NodeMap paper_map() {
  return [](int k) { return "n" + std::to_string(k); };
}

/// Harness for op1_fault_universe() (nodes 3,4,5,7,8 single, doubles at
/// 8-9, 5-8, 4-6), observed at n3:
///   * n7 and n8 are exactly symmetric (identical resistors to n5 and to
///     ground) -> SA faults at 7 and 8 fold.
///   * n6 and n9 form a resistive island tied only to ground -> clamps
///     there elide, so the doubles at 8-9 and 4-6 fold onto the single
///     faults at 8 and 4.
circuit::Netlist op1_harness() {
  circuit::Netlist n;
  const auto stim = n.node("stim");
  const auto n3 = n.node("n3");
  const auto n4 = n.node("n4");
  const auto n5 = n.node("n5");
  const auto n6 = n.node("n6");
  const auto n7 = n.node("n7");
  const auto n8 = n.node("n8");
  const auto n9 = n.node("n9");
  n.add<circuit::VoltageSource>(stim, kGround, 5.0);
  n.add<circuit::Resistor>(stim, n4, 1e3);
  n.add<circuit::Resistor>(n4, n5, 1e3);
  n.add<circuit::Resistor>(n5, n3, 2.2e3);
  n.add<circuit::Resistor>(n3, kGround, 10e3);
  // The symmetric pair: swapping n7 and n8 maps the netlist onto itself.
  n.add<circuit::Resistor>(n5, n7, 3.3e3);
  n.add<circuit::Resistor>(n5, n8, 3.3e3);
  n.add<circuit::Resistor>(n7, kGround, 4.7e3);
  n.add<circuit::Resistor>(n8, kGround, 4.7e3);
  // The unobservable island: n6-n9 reach only ground, and ground never
  // relays a signal.
  n.add<circuit::Resistor>(n6, n9, 1e3);
  n.add<circuit::Resistor>(n6, kGround, 1e3);
  n.add<circuit::Resistor>(n9, kGround, 1e3);
  return n;
}

/// Harness for sc_fault_universe() (nodes 4,5,7,8,9 single, bridges at
/// 6-7 and 5-8), observed at n7:
///   * n4 and n5 symmetric -> SA@4 / SA@5 fold.
///   * n9 is an island -> SA@9 (both polarities) statically undetectable.
///   * n6 is a local supply rail (clamps there would be absorbed; the
///     6-7 bridge still simulates because n7 is live).
circuit::Netlist sc_harness() {
  circuit::Netlist n;
  const auto stim = n.node("stim");
  const auto n4 = n.node("n4");
  const auto n5 = n.node("n5");
  const auto n6 = n.node("n6");
  const auto n7 = n.node("n7");
  const auto n8 = n.node("n8");
  const auto n9 = n.node("n9");
  n.add<circuit::VoltageSource>(stim, kGround, 2.5);
  n.add<circuit::Resistor>(stim, n7, 1e3);
  n.add<circuit::Resistor>(n7, n4, 1e3);
  n.add<circuit::Resistor>(n7, n5, 1e3);
  n.add<circuit::Resistor>(n4, kGround, 2e3);
  n.add<circuit::Resistor>(n5, kGround, 2e3);
  n.add<circuit::Resistor>(n7, n8, 1.5e3);
  n.add<circuit::Resistor>(n8, kGround, 3.3e3);
  n.add<circuit::VoltageSource>(n6, kGround, 5.0);
  n.add<circuit::Resistor>(n6, n8, 2.7e3);
  n.add<circuit::Resistor>(n9, kGround, 1e3);
  n.add<circuit::Resistor>(n9, kGround, 1e3);
  return n;
}

/// A real, deterministic, class-consistent test function: inject the
/// fault into a fresh harness, DC-solve, flag any tap deviation from the
/// golden voltage. Binary score/empty detail keep members of an
/// equivalence class bit-identical (same-class netlists are related by an
/// automorphism or an island mutation, so the *detection verdict* is
/// equal even where last-ulp voltages are not).
faults::FaultTestFn tap_probe(circuit::Netlist (*build)(),
                              const std::string& tap,
                              std::vector<std::string>* log = nullptr,
                              std::mutex* log_mu = nullptr) {
  const double golden = circuit::dc_operating_point(build()).voltage(tap);
  return [=](const faults::FaultSpec& f) {
    if (log != nullptr) {
      std::lock_guard<std::mutex> lock(*log_mu);
      log->push_back(f.label);
    }
    circuit::Netlist n = build();
    faults::inject(n, f, paper_map());
    const circuit::DcResult dc = circuit::dc_operating_point(n);
    faults::FaultResult r;
    r.fault = f;
    r.detected = std::abs(dc.voltage(tap) - golden) > 1e-6;
    r.score = r.detected ? 1.0 : 0.0;
    return r;
  };
}

TEST(Testability, ScoresTheHarness) {
  analysis::TestabilityOptions opts;
  opts.taps = {"n3"};
  const analysis::TestabilityReport rep =
      analysis::analyze_testability(op1_harness(), opts);

  const analysis::NodeTestability* tap = rep.find("n3");
  ASSERT_NE(tap, nullptr);
  EXPECT_TRUE(tap->tap);
  EXPECT_DOUBLE_EQ(tap->observability, 1.0);

  // stim is supply-pinned: scored 1 by convention, excluded from stats.
  const analysis::NodeTestability* stim = rep.find("stim");
  ASSERT_NE(stim, nullptr);
  EXPECT_TRUE(stim->rail);

  // The island cannot reach the tap or the stimulus.
  for (const char* node : {"n6", "n9"}) {
    const analysis::NodeTestability* t = rep.find(node);
    ASSERT_NE(t, nullptr) << node;
    EXPECT_EQ(t->observability, 0.0) << node;
    EXPECT_EQ(t->controllability, 0.0) << node;
  }
  EXPECT_EQ(rep.unobservable, 2u);
  EXPECT_EQ(rep.uncontrollable, 2u);
  EXPECT_GT(rep.mean_observability, 0.0);
  EXPECT_LT(rep.mean_observability, 1.0);
  EXPECT_FALSE(rep.outcome().pass);  // unobservable nodes are a finding

  // Symmetric nodes score identically.
  EXPECT_DOUBLE_EQ(rep.find("n7")->observability,
                   rep.find("n8")->observability);
  EXPECT_DOUBLE_EQ(rep.find("n7")->controllability,
                   rep.find("n8")->controllability);
}

TEST(Testability, AddingATapNeverLowersObservability) {
  const circuit::Netlist n = op1_harness();
  analysis::TestabilityOptions base_opts;
  base_opts.taps = {"n3"};
  const analysis::TestabilityReport base =
      analysis::analyze_testability(n, base_opts);
  for (const char* extra : {"n4", "n5", "n6", "n7", "n8", "n9", "stim"}) {
    analysis::TestabilityOptions more = base_opts;
    more.taps.push_back(extra);
    const analysis::TestabilityReport rep = analysis::analyze_testability(n, more);
    ASSERT_EQ(rep.nodes.size(), base.nodes.size());
    for (std::size_t i = 0; i < rep.nodes.size(); ++i) {
      EXPECT_GE(rep.nodes[i].observability, base.nodes[i].observability)
          << rep.nodes[i].node << " with extra tap " << extra;
    }
  }
}

TEST(Testability, RecommendsTheIslandTestPoint) {
  const circuit::Netlist n = sc_harness();
  const analysis::Topology topo(n);
  analysis::TestabilityOptions opts;
  opts.taps = {"n7"};
  const std::vector<analysis::TestPointSuggestion> sugg =
      analysis::recommend_test_points(topo, opts, 10);
  ASSERT_FALSE(sugg.empty());
  bool found_island = false;
  for (const analysis::TestPointSuggestion& s : sugg) {
    if (s.node == "n9") {
      found_island = true;
      // Tapping the island observes exactly the island, at cost zero.
      EXPECT_EQ(s.newly_observable, 1u);
      EXPECT_NEAR(s.gain, 1.0, 1e-12);
    }
  }
  EXPECT_TRUE(found_island);
}

TEST(Testability, PassesWarnAndSuggest) {
  const circuit::Netlist n = sc_harness();
  const analysis::Report r = analysis::Runner::with_testability({"n7"}).run(n);
  // n9 earns a Warning (unobservable) and an Info (uncontrollable).
  const auto blind = r.for_rule("testability");
  ASSERT_EQ(blind.size(), 2u) << r.format();
  std::size_t warnings = 0;
  for (const auto& d : blind) {
    EXPECT_EQ(d.node, "n9");
    if (d.severity == analysis::Severity::kWarning) ++warnings;
  }
  EXPECT_EQ(warnings, 1u);
  EXPECT_FALSE(r.for_rule("test-point").empty()) << r.format();
}

TEST(Collapse, FoldsTheOp1Universe) {
  const std::vector<faults::FaultSpec> universe = faults::op1_fault_universe();
  faults::CollapseOptions opts;
  opts.taps = {"n3"};
  const faults::CollapsedUniverse cu =
      faults::collapse(universe, op1_harness(), paper_map(), opts);

  // 16 faults -> 10 classes: SA@8 folds onto SA@7 (symmetry), the 8-9
  // doubles fold likewise after the island clamp elides, and the 4-6
  // doubles fold onto SA@4 (dedup after elision).
  EXPECT_EQ(cu.map.size(), 16u);
  EXPECT_EQ(cu.map.simulated_count(), 10u);
  EXPECT_EQ(cu.map.solves_saved(), 6u);
  EXPECT_EQ(cu.map.undetectable_count(), 0u);
  EXPECT_GE(cu.collapse_ratio(), 0.25);
  EXPECT_TRUE(cu.outcome().pass);

  // SA0@7 (index 4) represents SA0@8 (index 6) and double-SA0@8-9 (10).
  EXPECT_TRUE(cu.map.is_representative(4));
  EXPECT_EQ(cu.map.representative_of(6), 4u);
  EXPECT_EQ(cu.map.rule(6), faults::CollapseRule::kSymmetry);
  EXPECT_EQ(cu.map.representative_of(10), 4u);
  const std::vector<std::size_t> cls = cu.map.members_of(4);
  EXPECT_EQ(cls.size(), 3u);

  // Doubles at 4-6 (indices 14, 15) fold onto SA@4 (indices 0, 1).
  EXPECT_EQ(cu.map.representative_of(14), 0u);
  EXPECT_EQ(cu.map.representative_of(15), 1u);
  EXPECT_FALSE(cu.reasons[14].empty());
}

TEST(Collapse, MarksTheScIslandUndetectable) {
  const std::vector<faults::FaultSpec> universe = faults::sc_fault_universe();
  faults::CollapseOptions opts;
  opts.taps = {"n7"};
  const faults::CollapsedUniverse cu =
      faults::collapse(universe, sc_harness(), paper_map(), opts);

  EXPECT_EQ(cu.map.simulated_count(), 8u);
  EXPECT_EQ(cu.map.solves_saved(), 4u);
  EXPECT_EQ(cu.map.undetectable_count(), 2u);
  EXPECT_GE(cu.collapse_ratio(), 0.25);
  EXPECT_FALSE(cu.outcome().pass);  // undetectable faults are a finding

  // SA@9 in both polarities cannot reach the tap (indices 8 and 9).
  EXPECT_TRUE(cu.map.is_undetectable(8));
  EXPECT_TRUE(cu.map.is_undetectable(9));
  EXPECT_EQ(cu.map.rule(8), faults::CollapseRule::kUndetectable);
  EXPECT_EQ(cu.signatures[8], "none");
  EXPECT_NE(cu.reasons[8].find("statically undetectable"), std::string::npos);

  // SA@5 folds onto SA@4 by the n4/n5 symmetry (indices 2,3 -> 0,1).
  EXPECT_EQ(cu.map.representative_of(2), 0u);
  EXPECT_EQ(cu.map.representative_of(3), 1u);
  EXPECT_EQ(cu.map.rule(2), faults::CollapseRule::kSymmetry);
}

TEST(Collapse, RejectsUnknownNodes) {
  const std::vector<faults::FaultSpec> universe = faults::op1_fault_universe();
  faults::CollapseOptions bad_tap;
  bad_tap.taps = {"nope"};
  EXPECT_THROW(
      faults::collapse(universe, op1_harness(), paper_map(), bad_tap),
      std::invalid_argument);
  faults::CollapseOptions opts;
  opts.taps = {"n7"};
  // sc_harness has no n3; the OP1 universe clamps it.
  EXPECT_THROW(faults::collapse(universe, sc_harness(), paper_map(), opts),
               std::invalid_argument);
}

TEST(CollapseMap, SignatureAlgebra) {
  const faults::CollapseMap m = faults::CollapseMap::from_signatures(
      {"a", "b", "a", "", "b"}, {false, false, false, true, false});
  EXPECT_EQ(m.size(), 5u);
  ASSERT_EQ(m.representatives().size(), 2u);
  EXPECT_EQ(m.representatives()[0], 0u);
  EXPECT_EQ(m.representatives()[1], 1u);
  EXPECT_EQ(m.representative_of(2), 0u);
  EXPECT_EQ(m.representative_of(4), 1u);
  EXPECT_TRUE(m.is_undetectable(3));
  EXPECT_FALSE(m.is_representative(3));
  EXPECT_EQ(m.rule(3), faults::CollapseRule::kUndetectable);
  EXPECT_EQ(m.simulated_count(), 2u);
  EXPECT_EQ(m.solves_saved(), 3u);
  EXPECT_EQ(m.undetectable_count(), 1u);
  const std::vector<std::size_t> cls = m.members_of(0);
  ASSERT_EQ(cls.size(), 2u);
  EXPECT_EQ(cls[1], 2u);

  EXPECT_THROW(faults::CollapseMap::from_signatures({"a"}, {true, false}),
               std::invalid_argument);
}

TEST(CollapsedCampaign, Op1HarnessBitIdentical) {
  const std::vector<faults::FaultSpec> universe = faults::op1_fault_universe();
  faults::CollapseOptions copts;
  copts.taps = {"n3"};
  const faults::CollapsedUniverse cu =
      faults::collapse(universe, op1_harness(), paper_map(), copts);

  const faults::FaultTestFn probe = tap_probe(&op1_harness, "n3");
  const faults::CampaignReport full = faults::run_campaign(universe, probe);
  EXPECT_GT(full.detected_count, 0u);
  EXPECT_EQ(full.simulated_count, universe.size());
  EXPECT_EQ(full.solves_saved, 0u);

  faults::CampaignOptions opts;
  opts.collapse = &cu;
  const faults::CampaignReport collapsed =
      faults::run_campaign(universe, probe, opts);
  EXPECT_EQ(collapsed.results.size(), universe.size());
  EXPECT_EQ(collapsed.simulated_count, 10u);
  EXPECT_EQ(collapsed.solves_saved, 6u);
  EXPECT_EQ(collapsed.statically_undetectable_count, 0u);
  EXPECT_EQ(full.canonical_outcomes(), collapsed.canonical_outcomes());

  for (std::size_t threads : {2u, 8u}) {
    faults::CampaignOptions p = opts;
    p.threads = threads;
    const faults::CampaignReport par =
        faults::run_campaign_parallel(universe, probe, p);
    EXPECT_EQ(full.canonical_outcomes(), par.canonical_outcomes())
        << "threads=" << threads;
    EXPECT_EQ(par.solves_saved, 6u);
  }
}

TEST(CollapsedCampaign, ScHarnessBitIdentical) {
  const std::vector<faults::FaultSpec> universe = faults::sc_fault_universe();
  faults::CollapseOptions copts;
  copts.taps = {"n7"};
  const faults::CollapsedUniverse cu =
      faults::collapse(universe, sc_harness(), paper_map(), copts);

  const faults::FaultTestFn probe = tap_probe(&sc_harness, "n7");
  const faults::CampaignReport full = faults::run_campaign(universe, probe);
  // The island faults really do escape: static analysis and simulation
  // agree that SA@9 never reaches the tap.
  EXPECT_FALSE(full.results[8].detected);
  EXPECT_FALSE(full.results[9].detected);
  EXPECT_GT(full.detected_count, 0u);

  faults::CampaignOptions opts;
  opts.collapse = &cu;
  const faults::CampaignReport collapsed =
      faults::run_campaign(universe, probe, opts);
  EXPECT_EQ(collapsed.simulated_count, 8u);
  EXPECT_EQ(collapsed.solves_saved, 4u);
  EXPECT_EQ(collapsed.statically_undetectable_count, 2u);
  EXPECT_EQ(full.canonical_outcomes(), collapsed.canonical_outcomes());
  EXPECT_NE(collapsed.throughput_summary().find("collapse:"),
            std::string::npos);

  for (std::size_t threads : {2u, 8u}) {
    faults::CampaignOptions p = opts;
    p.threads = threads;
    const faults::CampaignReport par =
        faults::run_campaign_parallel(universe, probe, p);
    EXPECT_EQ(full.canonical_outcomes(), par.canonical_outcomes())
        << "threads=" << threads;
  }
}

TEST(CollapsedCampaign, UndetectableFaultsNeverReachTheSolver) {
  const std::vector<faults::FaultSpec> universe = faults::sc_fault_universe();
  faults::CollapseOptions copts;
  copts.taps = {"n7"};
  const faults::CollapsedUniverse cu =
      faults::collapse(universe, sc_harness(), paper_map(), copts);

  std::vector<std::string> log;
  std::mutex log_mu;
  const faults::FaultTestFn probe = tap_probe(&sc_harness, "n7", &log, &log_mu);
  faults::CampaignOptions opts;
  opts.collapse = &cu;
  std::size_t progress_total = 0;
  opts.on_fault_complete = [&](std::size_t, std::size_t total,
                               const faults::FaultResult&) {
    progress_total = total;
  };
  const faults::CampaignReport rep =
      faults::run_campaign(universe, probe, opts);

  EXPECT_EQ(log.size(), 8u);  // one invocation per representative
  EXPECT_EQ(progress_total, 8u);
  for (const std::string& label : log) {
    EXPECT_NE(label, universe[8].label);
    EXPECT_NE(label, universe[9].label);
  }
  // The skipped faults still appear in the report, as clean escapes.
  EXPECT_EQ(rep.results.size(), universe.size());
  EXPECT_FALSE(rep.results[8].detected);
  EXPECT_EQ(rep.results[8].score, 0.0);
}

TEST(CollapsedCampaign, RejectsBadConfigurations) {
  const std::vector<faults::FaultSpec> universe = faults::sc_fault_universe();
  faults::CollapseOptions copts;
  copts.taps = {"n7"};
  const faults::CollapsedUniverse cu =
      faults::collapse(universe, sc_harness(), paper_map(), copts);
  const faults::FaultTestFn probe = tap_probe(&sc_harness, "n7");

  faults::CampaignOptions opts;
  opts.collapse = &cu;
  const std::vector<faults::FaultSpec> other = faults::op1_fault_universe();
  EXPECT_THROW(faults::run_campaign(other, probe, opts), std::invalid_argument);
  EXPECT_THROW(faults::run_campaign_parallel(other, probe, opts),
               std::invalid_argument);
}

TEST(SiteUniverse, EnumeratesFaultSitesFromTopology) {
  const faults::FaultSiteUniverse u = faults::all_single_stuck(op1_harness());
  // stim is supply-pinned; ground is excluded; n3..n9 all have degree >= 2.
  ASSERT_EQ(u.sites.size(), 7u);
  EXPECT_EQ(u.sites.front(), "n3");
  EXPECT_EQ(u.faults.size(), 14u);
  EXPECT_EQ(u.faults[0].label, "SA0@n3");
  EXPECT_EQ(u.faults[1].label, "SA1@n3");

  // The bundled NodeMap resolves the 1-based site numbers.
  const faults::NodeMap map = u.node_map();
  EXPECT_EQ(map(u.faults[0].node_a), "n3");
  EXPECT_EQ(map(static_cast<int>(u.sites.size())), "n9");
  EXPECT_THROW(map(0), std::out_of_range);
  EXPECT_THROW(map(static_cast<int>(u.sites.size()) + 1), std::out_of_range);

  // The site universe collapses on its own netlist: the n7/n8 symmetry
  // folds two faults and the n6/n9 island is statically undetectable.
  faults::CollapseOptions copts;
  copts.taps = {"n3"};
  const faults::CollapsedUniverse cu =
      faults::collapse(u.faults, op1_harness(), map, copts);
  EXPECT_EQ(cu.map.simulated_count(), 8u);
  EXPECT_EQ(cu.map.undetectable_count(), 4u);
  EXPECT_EQ(cu.map.solves_saved(), 6u);

  // The range overload is unchanged.
  const std::vector<faults::FaultSpec> range = faults::all_single_stuck(4, 6);
  EXPECT_EQ(range.size(), 6u);
  EXPECT_THROW(faults::all_single_stuck(3, 2), std::invalid_argument);
}

TEST(TestabilityJson, RoundTripsThroughPython) {
  if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  analysis::TestabilityOptions topts;
  topts.taps = {"n3"};
  const analysis::TestabilityReport rep =
      analysis::analyze_testability(op1_harness(), topts);

  const std::vector<faults::FaultSpec> universe = faults::op1_fault_universe();
  faults::CollapseOptions copts;
  copts.taps = {"n3"};
  const faults::CollapsedUniverse cu =
      faults::collapse(universe, op1_harness(), paper_map(), copts);

  faults::CampaignOptions opts;
  opts.collapse = &cu;
  const faults::CampaignReport camp =
      faults::run_campaign(universe, tap_probe(&op1_harness, "n3"), opts);

  production::SpotCheckResult spot;
  spot.injected = 6;
  spot.detected = 4;
  spot.simulated = 3;
  spot.undetectable = 2;
  spot.undetectable_labels = {"counter-stuck-bit12", "latch-stuck-low-0xC00"};

  core::JsonWriter w;
  w.begin_object();
  w.key("testability");
  rep.to_json(w);
  w.key("collapse");
  cu.to_json(w);
  w.key("campaign");
  camp.to_json(w);
  w.key("spot_check");
  spot.to_json(w);
  w.end_object();

  const std::string path = testing::TempDir() + "/msbist_testability.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << w.str();
  }
  const std::string cmd =
      "python3 -m json.tool < '" + path + "' > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "python3 -m json.tool rejected the document";
  std::remove(path.c_str());
}

}  // namespace
