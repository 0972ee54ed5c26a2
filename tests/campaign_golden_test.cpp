// Committed golden fault campaigns: the TSRT campaigns service::dispatch
// runs on both example circuits (the paper's Figure 4 detection study),
// with and without static collapse, compared byte for byte against
// tests/golden/campaign_<circuit>.{canonical.txt,report.json}. The
// goldens were recorded from the campaign engine before its serial and
// parallel paths were folded into one, so they are a reference that does
// not depend on the engine under test agreeing with itself.
//
// Beside them, the testability studies dispatch() answers for the same
// circuits (the testability report plus the collapsed fault universe),
// compared whole against tests/golden/testability_<circuit>.report.json.
// Those documents carry no timing members, so every byte is pinned.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "core/job.h"
#include "core/json_value.h"
#include "service/dispatch.h"

namespace {

using namespace msbist;

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(MSBIST_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The report without its timing members: campaign wall and cpu seconds,
/// and each fault's elapsed seconds.
core::JsonValue strip_timing(core::JsonValue report) {
  report.erase("wall_seconds");
  report.erase("cpu_seconds");
  if (const core::JsonValue* results = report.find("results")) {
    core::JsonValue cleaned = core::JsonValue::array();
    for (core::JsonValue r : results->items()) {
      r.erase("elapsed_seconds");
      cleaned.push_back(std::move(r));
    }
    report.set("results", std::move(cleaned));
  }
  return report;
}

/// Collapse saves no solve on either example circuit (every fault is its
/// own class), so collapse on and off share one golden per circuit.
void expect_golden_campaign(const std::string& circuit, bool collapse) {
  const std::string stem = "campaign_" + circuit;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    core::JobRequest req;
    req.kind = core::JobKind::kFaultCampaign;
    req.circuit = circuit;
    req.collapse = collapse;
    req.threads = threads;
    const service::DispatchResult res = service::dispatch(req);
    ASSERT_TRUE(res.campaign.has_value()) << "threads " << threads;
    EXPECT_EQ(res.campaign->canonical_outcomes(),
              read_golden(stem + ".canonical.txt"))
        << "threads " << threads;
    // threads_used is part of the report, so the document is pinned at
    // the in-order reference thread count.
    if (threads == 1) {
      EXPECT_EQ(strip_timing(core::parse_json(res.report_json)).dump() + "\n",
                read_golden(stem + ".report.json"));
    }
  }
}

TEST(CampaignGolden, Op1FollowerMatchesCommittedGolden) {
  expect_golden_campaign("op1_follower", false);
}

TEST(CampaignGolden, Op1FollowerCollapsedMatchesCommittedGolden) {
  expect_golden_campaign("op1_follower", true);
}

TEST(CampaignGolden, ScIntegratorComparatorMatchesCommittedGolden) {
  expect_golden_campaign("sc_integrator_comparator", false);
}

TEST(CampaignGolden, ScIntegratorComparatorCollapsedMatchesCommittedGolden) {
  expect_golden_campaign("sc_integrator_comparator", true);
}

void expect_golden_testability(const std::string& circuit) {
  core::JobRequest req;
  req.kind = core::JobKind::kTestability;
  req.circuit = circuit;
  const service::DispatchResult res = service::dispatch(req);
  ASSERT_TRUE(res.testability.has_value());
  ASSERT_TRUE(res.collapsed.has_value());
  EXPECT_EQ(res.report_json + "\n",
            read_golden("testability_" + circuit + ".report.json"));
}

TEST(TestabilityGolden, Op1FollowerMatchesCommittedGolden) {
  expect_golden_testability("op1_follower");
}

TEST(TestabilityGolden, ScIntegratorComparatorMatchesCommittedGolden) {
  expect_golden_testability("sc_integrator_comparator");
}

}  // namespace
