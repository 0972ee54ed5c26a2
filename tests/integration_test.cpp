// Cross-module integration tests: full campaigns, the fault mechanism
// shared by the paper's three circuits, and ADC characterization on a die.
#include <gtest/gtest.h>

#include "core/device.h"
#include "faults/campaign.h"
#include "faults/universe.h"
#include "tsrt/transient_test.h"

namespace msbist {
namespace {

TEST(Integration, FullCampaignOverOp1Universe) {
  // Wire the campaign runner to the real TSRT engine: 100 % coverage of
  // the paper's 16-fault universe with the combined signature.
  using namespace tsrt;
  const TsrtOptions opts = paper_options(CircuitKind::kOp1Follower);
  const TsrtRun golden =
      run_transient_test(CircuitKind::kOp1Follower, std::nullopt, opts);
  const faults::CampaignReport report = faults::run_campaign(
      faults::op1_fault_universe(), [&](const faults::FaultSpec& f) {
        faults::FaultResult r;
        r.fault = f;
        const TsrtRun faulty = run_transient_test(CircuitKind::kOp1Follower, f, opts);
        r.score = combined_detection_percent(golden, faulty);
        r.detected = is_detected(r.score);
        return r;
      });
  EXPECT_EQ(report.results.size(), 16u);
  EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
  for (const auto& r : report.results) {
    EXPECT_GT(r.score, 30.0) << r.fault.label;
  }
}

TEST(Integration, CharacterizationConsistentAcrossMethods) {
  // Ramp-method transitions and servo-method single transitions must
  // agree on the same die within a fraction of an LSB.
  core::Device die = core::Device::fabricate(0);
  auto& adc = die.adc();
  const adc::AdcTransferFn xfer = [&](double v) -> std::uint32_t {
    return adc.full_scale_code() + 40u - adc.code_for(v);
  };
  const auto tl = adc::measure_transitions_ramp(xfer, 0.19, 0.52, 0.0005, 16);
  ASSERT_GE(tl.transitions.size(), 20u);
  const std::uint32_t probe_code = tl.base_code + 10;
  const double servo = adc::measure_transition_servo(xfer, probe_code, 0.19, 0.52, 31);
  EXPECT_NEAR(servo, tl.transitions[9], 0.005);
}

TEST(Integration, AllThreeCircuitsShareTheFaultMechanism) {
  // The same FaultSpec applies across circuits through each circuit's
  // node map — smoke the whole matrix once.
  using namespace tsrt;
  const auto fault = faults::FaultSpec::stuck_at(8, false);
  for (auto kind : {CircuitKind::kOp1Follower, CircuitKind::kScIntegratorAlone,
                    CircuitKind::kScIntegratorComparator}) {
    TsrtOptions opts = paper_options(kind);
    const TsrtRun golden = run_transient_test(kind, std::nullopt, opts);
    const TsrtRun faulty = run_transient_test(kind, fault, opts);
    EXPECT_GT(combined_detection_percent(golden, faulty), 20.0)
        << circuit_name(kind);
  }
}

}  // namespace
}  // namespace msbist
