// Unit tests for the digital sub-macros: counter, latch, control FSM,
// monotonicity checker, MISR.
#include <gtest/gtest.h>

#include "digital/counter.h"
#include "digital/fsm.h"
#include "digital/latch.h"
#include "digital/signature.h"

namespace msbist::digital {
namespace {

TEST(Counter, CountsWhenEnabled) {
  BinaryCounter c(8);
  c.set_enable(true);
  for (int i = 0; i < 5; ++i) c.clock();
  EXPECT_EQ(c.count(), 5u);
}

TEST(Counter, HoldsWhenDisabled) {
  BinaryCounter c(8);
  c.set_enable(true);
  c.clock();
  c.set_enable(false);
  for (int i = 0; i < 5; ++i) c.clock();
  EXPECT_EQ(c.count(), 1u);
}

TEST(Counter, ClearResets) {
  BinaryCounter c(4);
  c.set_enable(true);
  for (int i = 0; i < 7; ++i) c.clock();
  c.clear();
  EXPECT_EQ(c.count(), 0u);
  EXPECT_FALSE(c.overflowed());
}

TEST(Counter, WrapsAndFlagsOverflow) {
  BinaryCounter c(3);  // max 7
  c.set_enable(true);
  for (int i = 0; i < 8; ++i) c.clock();
  EXPECT_EQ(c.count(), 0u);
  EXPECT_TRUE(c.overflowed());
}

TEST(Counter, StuckBitFaultMasksOutput) {
  CounterFaults f;
  f.stuck_bit = 1;  // bit 1 stuck low
  f.stuck_bit_high = false;
  BinaryCounter c(8, f);
  c.set_enable(true);
  for (int i = 0; i < 3; ++i) c.clock();  // raw 3 = 0b11
  EXPECT_EQ(c.raw_count(), 3u);
  EXPECT_EQ(c.count(), 1u);  // bit1 forced low
}

TEST(Counter, StuckBitHigh) {
  CounterFaults f;
  f.stuck_bit = 2;
  f.stuck_bit_high = true;
  BinaryCounter c(8, f);
  EXPECT_EQ(c.count(), 4u);  // bit2 forced high even at zero
}

TEST(Counter, MissEveryNthPulse) {
  CounterFaults f;
  f.miss_every = 4;
  BinaryCounter c(8, f);
  c.set_enable(true);
  for (int i = 0; i < 8; ++i) c.clock();
  EXPECT_EQ(c.count(), 6u);  // two pulses swallowed
}

TEST(Counter, InvalidConfigThrows) {
  EXPECT_THROW(BinaryCounter(0), std::invalid_argument);
  CounterFaults f;
  f.stuck_bit = 9;
  EXPECT_THROW(BinaryCounter(8, f), std::invalid_argument);
}

TEST(Latch, LoadsAndMasksWidth) {
  OutputLatch l(4);
  l.load(0x1F);
  EXPECT_EQ(l.q(), 0x0Fu);
}

TEST(Latch, StuckBitsApply) {
  LatchFaults f;
  f.stuck_high_mask = 0b0001;
  f.stuck_low_mask = 0b1000;
  OutputLatch l(4, f);
  l.load(0b1010);
  EXPECT_EQ(l.q(), 0b0011u);
}

TEST(Latch, LoadDisabledKeepsStaleData) {
  LatchFaults f;
  f.load_disabled = true;
  OutputLatch l(8, f);
  l.load(42);
  EXPECT_EQ(l.q(), 0u);
}

TEST(ControlFsm, NormalConversionSequence) {
  DualSlopeControl fsm(4, 100);
  fsm.start();
  EXPECT_EQ(fsm.phase(), ConvPhase::kAutoZero);
  // Auto-zero clock.
  auto out = fsm.clock(false);
  EXPECT_TRUE(out.counter_clear);
  // Integrate for 4 clocks.
  for (int i = 0; i < 4; ++i) {
    out = fsm.clock(false);
    EXPECT_TRUE(out.connect_input) << "i=" << i;
  }
  EXPECT_EQ(fsm.phase(), ConvPhase::kDeintegrate);
  // De-integrate 3 clocks, then the comparator trips.
  for (int i = 0; i < 3; ++i) {
    out = fsm.clock(false);
    EXPECT_TRUE(out.connect_ref);
    EXPECT_TRUE(out.counter_enable);
  }
  out = fsm.clock(true);
  EXPECT_TRUE(out.latch_strobe);
  EXPECT_TRUE(fsm.done());
  EXPECT_FALSE(fsm.timed_out());
  EXPECT_EQ(fsm.deintegrate_clocks(), 4u);
}

TEST(ControlFsm, TimeoutWhenComparatorNeverTrips) {
  DualSlopeControl fsm(2, 5);
  fsm.start();
  fsm.clock(false);                           // auto-zero
  for (int i = 0; i < 2; ++i) fsm.clock(false);  // integrate
  ControlOutputs out;
  for (int i = 0; i < 5; ++i) out = fsm.clock(false);
  EXPECT_TRUE(fsm.done());
  EXPECT_TRUE(fsm.timed_out());
  EXPECT_TRUE(out.latch_strobe);
}

TEST(ControlFsm, StuckPhaseFreezesConversion) {
  ControlFaults f;
  f.stuck_phase = ConvPhase::kIntegrate;
  DualSlopeControl fsm(2, 5, f);
  fsm.start();
  fsm.clock(false);  // auto-zero -> integrate
  for (int i = 0; i < 50; ++i) fsm.clock(true);
  EXPECT_EQ(fsm.phase(), ConvPhase::kIntegrate);
  EXPECT_FALSE(fsm.done());
}

TEST(ControlFsm, RestartAfterDone) {
  DualSlopeControl fsm(1, 10);
  fsm.start();
  fsm.clock(false);
  fsm.clock(false);
  fsm.clock(true);
  EXPECT_TRUE(fsm.done());
  fsm.start();
  EXPECT_EQ(fsm.phase(), ConvPhase::kAutoZero);
}

TEST(Monotonicity, AcceptsNonDecreasing) {
  MonotonicityChecker mc;
  for (std::uint32_t c : {1u, 1u, 2u, 3u, 3u, 7u}) mc.observe(c);
  const auto r = mc.report();
  EXPECT_TRUE(r.monotonic);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.max_code, 7u);
}

TEST(Monotonicity, FlagsDecrease) {
  MonotonicityChecker mc;
  for (std::uint32_t c : {1u, 2u, 1u, 3u}) mc.observe(c);
  const auto r = mc.report();
  EXPECT_FALSE(r.monotonic);
  EXPECT_EQ(r.violations, 1u);
  EXPECT_EQ(r.first_violation_index, 2u);
}

TEST(Monotonicity, ResetClears) {
  MonotonicityChecker mc;
  mc.observe(5);
  mc.observe(1);
  mc.reset();
  mc.observe(0);
  EXPECT_TRUE(mc.report().monotonic);
}

TEST(MisrTest, DeterministicSignature) {
  Misr a, b;
  const std::vector<std::uint32_t> stream{1, 2, 3, 250, 251, 10};
  a.compact_all(stream);
  b.compact_all(stream);
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(MisrTest, SingleWordErrorChangesSignature) {
  Misr a, b;
  std::vector<std::uint32_t> good{10, 20, 30, 40, 50};
  std::vector<std::uint32_t> bad = good;
  bad[2] ^= 0x4;  // one flipped bit mid-stream
  a.compact_all(good);
  b.compact_all(bad);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(MisrTest, OrderSensitivity) {
  Misr a, b;
  a.compact_all({1, 2, 3});
  b.compact_all({3, 2, 1});
  EXPECT_NE(a.signature(), b.signature());
}

}  // namespace
}  // namespace msbist::digital
