// core::JsonWriter and the unified Outcome/to_json report contract: exact
// serialization, escaping, misuse detection, and a python3 round-trip
// fixture over every migrated report type.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "adc/metrics.h"
#include "analysis/diagnostic.h"
#include "analysis/testability.h"
#include "bist/controller.h"
#include "circuit/dc.h"
#include "core/device.h"
#include "core/job.h"
#include "core/json_value.h"
#include "core/outcome.h"
#include "faults/campaign.h"
#include "faults/collapse.h"
#include "production/batch.h"

namespace {

using namespace msbist;

// The contract is a compile-time concept: every migrated report type
// must satisfy it.
static_assert(core::Serializable<core::Outcome>);
static_assert(core::Serializable<bist::AnalogTestResult>);
static_assert(core::Serializable<bist::RampTestResult>);
static_assert(core::Serializable<bist::DigitalTestResult>);
static_assert(core::Serializable<bist::CompressedTestResult>);
static_assert(core::Serializable<bist::BistReport>);
static_assert(core::Serializable<faults::FaultResult>);
static_assert(core::Serializable<faults::CampaignReport>);
static_assert(core::Serializable<adc::AdcMetrics>);
static_assert(core::Serializable<analysis::Diagnostic>);
static_assert(core::Serializable<analysis::Report>);
static_assert(core::Serializable<production::ParamStats>);
static_assert(core::Serializable<production::DeviceOutcome>);
static_assert(core::Serializable<production::BatchReport>);
static_assert(core::Serializable<analysis::TestabilityReport>);
static_assert(core::Serializable<faults::CollapsedUniverse>);
static_assert(core::Serializable<core::JobRequest>);

TEST(JsonWriter, FlatObject) {
  core::JsonWriter w;
  w.begin_object()
      .member("name", "adc")
      .member("pass", true)
      .member("count", 3)
      .member("lsb", 0.25)
      .end_object();
  EXPECT_EQ(w.str(), R"({"name":"adc","pass":true,"count":3,"lsb":0.25})");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  core::JsonWriter w;
  w.begin_object().key("rows").begin_array();
  w.begin_object().member("i", 1).end_object();
  w.begin_object().member("i", 2).end_object();
  w.value(7);
  w.end_array().member("done", false).end_object();
  EXPECT_EQ(w.str(), R"({"rows":[{"i":1},{"i":2},7],"done":false})");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControls) {
  core::JsonWriter w;
  w.begin_object().member("s", "a\"b\\c\nd\te\x01" "f").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  core::JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .value(1.5)
      .end_array();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, ShortestRoundTripNumbers) {
  core::JsonWriter w;
  w.begin_array().value(0.1).value(1e-9).value(-3.0).end_array();
  EXPECT_EQ(w.str(), "[0.1,1e-09,-3]");
}

TEST(JsonWriter, MisuseThrows) {
  {
    core::JsonWriter w;
    EXPECT_THROW(w.key("x"), std::logic_error);  // key outside object
  }
  {
    core::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    core::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::logic_error);  // unclosed container
  }
}

TEST(UnifiedOutcome, CombineSemantics) {
  core::Outcome a = core::Outcome::ok("first");
  a &= core::Outcome::ok("second");
  EXPECT_TRUE(a.pass);
  EXPECT_EQ(a.detail, "first; second");
  a &= core::Outcome::fail("broken");
  EXPECT_FALSE(a.pass);
  EXPECT_TRUE(static_cast<bool>(core::Outcome::ok()));
  EXPECT_FALSE(static_cast<bool>(core::Outcome::fail("x")));
}

TEST(UnifiedOutcome, MigratedReportsExposeOutcome) {
  core::Device die = core::Device::fabricate(1996);
  const bist::BistReport bist_rep = die.run_bist();
  EXPECT_EQ(bist_rep.outcome().pass, bist_rep.pass);

  analysis::Report erc;
  EXPECT_TRUE(erc.outcome().pass);
  erc.add({analysis::Severity::kError, "dc-path", "floating", "n1", "", ""});
  EXPECT_FALSE(erc.outcome().pass);

  adc::AdcMetrics metrics;
  metrics.offset_lsb = 99.0;
  EXPECT_FALSE(metrics.outcome().pass);
  metrics.offset_lsb = 0.0;
  EXPECT_TRUE(metrics.outcome().pass);

  faults::CampaignReport camp;
  camp.results.resize(2);
  camp.detected_count = 1;
  EXPECT_FALSE(camp.outcome().pass);
  camp.detected_count = 2;
  EXPECT_TRUE(camp.outcome().pass);
}

TEST(FailureJson, AllFieldsSerializeWithSnakeCaseCode) {
  core::Failure f;
  f.code = core::ErrorCode::kNumericOverflow;
  f.analysis = "transient";
  f.has_time = true;
  f.time_s = 2.5e-3;
  f.has_sweep_value = true;
  f.sweep_value = 1.25;
  f.iterations = 3;
  f.worst_node = "out";
  f.worst_update = std::numeric_limits<double>::infinity();
  f.detail = "poisoned update";

  const std::string json = core::to_json(f);
  EXPECT_NE(json.find("\"code\":\"numeric_overflow\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"analysis\":\"transient\""), std::string::npos);
  EXPECT_NE(json.find("\"time_s\":0.0025"), std::string::npos);
  EXPECT_NE(json.find("\"sweep_value\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"iterations\":3"), std::string::npos);
  EXPECT_NE(json.find("\"worst_node\":\"out\""), std::string::npos);
  // Non-finite numerics degrade to null per the writer's contract.
  EXPECT_NE(json.find("\"worst_update\":null"), std::string::npos);
  // The human-readable message threads the same facts together.
  EXPECT_NE(f.message().find("numeric_overflow"), std::string::npos);
  EXPECT_NE(f.message().find("out"), std::string::npos);
}

// The wire-schema envelope: every top-level report document leads with
// "kind" then "schema_version" so clients can route a document before
// reading any payload field.
TEST(ReportEnvelope, EveryReportLeadsWithKindAndSchemaVersion) {
  const auto expect_envelope = [](const std::string& json,
                                  const std::string& kind) {
    const core::JsonValue doc = core::parse_json(json);
    ASSERT_TRUE(doc.is_object()) << json;
    ASSERT_GE(doc.members().size(), 2u) << json;
    EXPECT_EQ(doc.members()[0].first, "kind") << json;
    EXPECT_EQ(doc.members()[1].first, "schema_version") << json;
    EXPECT_EQ(doc.find("kind")->as_string(), kind);
    EXPECT_EQ(doc.find("schema_version")->as_u64(), core::kSchemaVersion);
  };

  expect_envelope(core::to_json(bist::BistReport{}), "bist_report");
  expect_envelope(core::to_json(faults::CampaignReport{}), "campaign_report");
  expect_envelope(core::to_json(adc::AdcMetrics{}), "adc_metrics");
  expect_envelope(core::to_json(analysis::Report{}), "erc_report");
  expect_envelope(core::to_json(analysis::TestabilityReport{}),
                  "testability_report");
  expect_envelope(core::to_json(faults::CollapsedUniverse{}),
                  "collapsed_universe");

  const production::BatchReport batch = production::run_batch(
      production::paper_population(), production::TestPlan::bist_only(), 2);
  expect_envelope(core::to_json(batch), "batch_report");

  // The request envelope leads with the same pair; its kind is the job
  // kind rather than a report name.
  expect_envelope(core::to_json(core::JobRequest{}), "batch");
}

// Round-trip fixture: every migrated report type rendered into one JSON
// document and fed through `python3 -m json.tool`, the same validator
// the CI smoke step uses.
TEST(UnifiedOutcome, JsonRoundTripThroughPython) {
  if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }

  core::Device die = core::Device::fabricate(1996);
  const bist::BistReport bist_rep = die.run_bist();
  const adc::AdcMetrics metrics = die.characterize();

  analysis::Report erc;
  erc.add({analysis::Severity::kWarning, "floating-node", "node \"x\" floats",
           "x", "R1", "tie it down"});

  faults::CampaignReport camp;
  faults::FaultResult fr;
  fr.fault = faults::FaultSpec::stuck_at(4, true);
  fr.detected = true;
  fr.score = 0.75;
  camp.results.push_back(fr);
  camp.detected_count = 1;

  const production::BatchReport batch = production::run_batch(
      production::paper_population(), production::TestPlan::bist_only(), 2);

  core::JsonWriter w;
  w.begin_object();
  w.key("outcome");
  core::Outcome::fail("demo \"quoted\" detail\n").to_json(w);
  w.key("bist");
  bist_rep.to_json(w);
  w.key("metrics");
  metrics.to_json(w);
  w.key("erc");
  erc.to_json(w);
  w.key("campaign");
  camp.to_json(w);
  w.key("batch");
  batch.to_json(w);
  core::Failure fail_rec;
  fail_rec.code = core::ErrorCode::kSingularMatrix;
  fail_rec.analysis = "dc_sweep";
  fail_rec.has_sweep_value = true;
  fail_rec.sweep_value = 0.5;
  fail_rec.detail = "rescue ladder exhausted";
  w.key("failure");
  fail_rec.to_json(w);
  w.end_object();

  const std::string path = testing::TempDir() + "/msbist_reports.json";
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
