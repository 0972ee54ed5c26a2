// Unit tests for the Device fabrication model (and the paper's batch of
// dies under production::run_batch), report tables, and the slot
// executor behind the parallel engines.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/device.h"
#include "core/report.h"
#include "core/thread_pool.h"
#include "production/batch.h"

namespace msbist::core {
namespace {

TEST(DeviceTest, TypicalDieMatchesPaperCharacterization) {
  Device d = Device::fabricate(0);
  const adc::AdcMetrics m = d.characterize();
  // Paper spec table: offset < 0.2 LSB (allowing measurement slack),
  // gain within +/-0.5 LSB, INL max ~1.3, DNL max ~1.2.
  EXPECT_LT(std::abs(m.offset_lsb), 0.25);
  EXPECT_LT(std::abs(m.gain_error_lsb), 0.55);
  EXPECT_NEAR(m.max_abs_dnl, 1.2, 0.25);
  EXPECT_NEAR(m.max_abs_inl, 1.3, 0.25);
}

TEST(DeviceTest, SameSeedSameDie) {
  Device a = Device::fabricate(7);
  Device b = Device::fabricate(7);
  const auto ra = a.run_bist();
  const auto rb = b.run_bist();
  EXPECT_EQ(ra.pass, rb.pass);
  EXPECT_EQ(ra.compressed.digital_signature, rb.compressed.digital_signature);
  EXPECT_EQ(ra.analog.fall_times_s, rb.analog.fall_times_s);
}

TEST(DeviceTest, DifferentSeedsDiffer) {
  Device a = Device::fabricate(1);
  Device b = Device::fabricate(2);
  // Different dies measure at least slightly different fall times.
  const auto ra = a.run_bist();
  const auto rb = b.run_bist();
  EXPECT_NE(ra.analog.fall_times_s, rb.analog.fall_times_s);
}

TEST(BatchTest, PaperBatchAllPass) {
  // "A batch of 10 devices were fabricated... All devices passed the
  // analogue, digital and compressed tests."
  const auto population = production::paper_population();
  ASSERT_EQ(population.size(), 10u);
  const auto res =
      production::run_batch(population, production::TestPlan::bist_only());
  EXPECT_EQ(res.passed, res.devices.size()) << res.passed << "/10 passed";
}

TEST(BatchTest, FaultyDieFailsInBatch) {
  adc::DualSlopeAdcConfig bad = adc::DualSlopeAdcConfig::characterized();
  bad.latch_faults.stuck_high_mask = 0x20;
  std::vector<production::DieSpec> population(3);
  for (std::size_t i = 0; i < population.size(); ++i) {
    population[i].seed = 42 + i + 1;  // lot seed 42, die i at lot_seed + i + 1
    population[i].config = bad;
  }
  const auto res =
      production::run_batch(population, production::TestPlan::bist_only());
  EXPECT_EQ(res.passed, 0u);
}

TEST(ReportTable, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 2)});
  t.add_row({"b", "x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
}

TEST(ReportTable, Validation) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a"});
  EXPECT_THROW(t.add_row({"x", "y"}), std::invalid_argument);
}

TEST(ReportTable, NumPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
}

TEST(ForEachSlot, DefaultThreadCountAtLeastOne) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ForEachSlot, RunsEverySlotOnce) {
  for (const std::size_t threads : {0u, 1u, 4u, 64u}) {
    std::vector<std::atomic<int>> hits(100);
    for_each_slot(hits.size(), threads, {},
                  [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "slot " << i << ", threads " << threads;
    }
  }
  for_each_slot(0, 4, {}, [](std::size_t) { FAIL() << "no slot to run"; });
}

TEST(ForEachSlot, StopsClaimingOnceStopped) {
  for (const std::size_t threads : {1u, 4u}) {
    std::atomic<std::size_t> ran{0};
    for_each_slot(
        1000, threads, [&ran] { return ran.load() >= 10; },
        [&ran](std::size_t) { ran.fetch_add(1); });
    // Each worker can be past its last poll when the tenth slot lands.
    EXPECT_GE(ran.load(), 10u);
    EXPECT_LE(ran.load(), 10u + threads - 1) << "threads " << threads;
  }
  std::atomic<std::size_t> ran{0};
  for_each_slot(
      10, 4, [] { return true; }, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ForEachSlot, RethrowsTheLowestThrowingSlot) {
  for (const std::size_t threads : {1u, 4u}) {
    std::atomic<std::size_t> ran{0};
    try {
      for_each_slot(1000, threads, {}, [&ran](std::size_t i) {
        ran.fetch_add(1);
        if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      // Slot 3 was claimed before slot 7, so it always ran and threw.
      EXPECT_STREQ(e.what(), "3") << "threads " << threads;
    }
    // Inline, claiming stops at the throw instead of running the lot.
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 4u);
    }
  }
}

}  // namespace
}  // namespace msbist::core
