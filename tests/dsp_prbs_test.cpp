// Unit tests for the PRBS / LFSR stimulus generator.
#include "dsp/prbs.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "dsp/vec.h"
#include "dsp_test_util.h"

namespace msbist::dsp {
namespace {

TEST(Prbs, InvalidArgumentsThrow) {
  EXPECT_THROW(Prbs(1, 1), std::invalid_argument);
  EXPECT_THROW(Prbs(32, 1), std::invalid_argument);
  EXPECT_THROW(Prbs(4, 0), std::invalid_argument);
  // Seed that masks to zero within the register width.
  EXPECT_THROW(Prbs(4, 0b10000), std::invalid_argument);
}

TEST(Prbs, PeriodFormula) {
  EXPECT_EQ(Prbs(4).period(), 15u);
  EXPECT_EQ(Prbs(15).period(), 32767u);
}

TEST(Prbs, PaperStimulusIsFifteenBits) {
  // The paper's stimulus: 15-bit sequence, 250 us steps, 0/5 V.
  Prbs gen(4);
  const auto bits = gen.full_period();
  EXPECT_EQ(bits.size(), 15u);
}

// Parameterized maximality check: a maximal-length LFSR must cycle
// through all 2^n - 1 nonzero states before repeating.
class PrbsMaximality : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrbsMaximality, VisitsAllNonzeroStates) {
  const unsigned stages = GetParam();
  Prbs gen(stages, 1);
  const std::size_t period = gen.period();
  // Collect output bits over one period and verify the balance property
  // (2^{n-1} ones, 2^{n-1}-1 zeros), which only a maximal sequence with
  // this period length can satisfy together with non-repetition below.
  const auto bits = gen.bits(period);
  std::size_t ones = 0;
  for (int b : bits) ones += static_cast<std::size_t>(b);
  EXPECT_EQ(ones, (period + 1) / 2);
  // Next full period must repeat exactly (periodicity).
  const auto bits2 = gen.bits(period);
  EXPECT_EQ(bits, bits2);
  // No shorter period: a proper divisor prefix must not tile the sequence.
  for (std::size_t cand = 1; cand < period; ++cand) {
    if (period % cand != 0) continue;
    bool tiles = true;
    for (std::size_t i = cand; i < period && tiles; ++i) {
      if (bits[i] != bits[i % cand]) tiles = false;
    }
    EXPECT_FALSE(tiles) << "stages=" << stages << " has sub-period " << cand;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSupportedWidths, PrbsMaximality,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u,
                                           12u, 13u, 14u, 15u, 16u));

TEST(Prbs, SeedChangesPhaseNotSequence) {
  // Different seeds give rotations of the same maximal sequence.
  Prbs a(5, 1);
  Prbs b(5, 7);
  const auto sa = a.full_period();
  const auto sb = b.full_period();
  // sb must appear as a rotation of sa.
  bool found = false;
  for (std::size_t shift = 0; shift < sa.size() && !found; ++shift) {
    bool match = true;
    for (std::size_t i = 0; i < sa.size() && match; ++i) {
      if (sb[i] != sa[(i + shift) % sa.size()]) match = false;
    }
    found = match;
  }
  EXPECT_TRUE(found);
}

TEST(Prbs, BitsToWaveformHold) {
  const auto w = bits_to_waveform({1, 0, 1}, 3, 0.0, 5.0);
  const std::vector<double> expect{5, 5, 5, 0, 0, 0, 5, 5, 5};
  EXPECT_EQ(w, expect);
}

TEST(Prbs, BitsToWaveformZeroSamplesThrows) {
  EXPECT_THROW(bits_to_waveform({1}, 0, 0.0, 5.0), std::invalid_argument);
}

TEST(Prbs, StimulusMatchesPaperParameters) {
  // 15 bits x 250 us / 5 us sampling = 750 samples of 0/5 V.
  const auto w = prbs_stimulus(4, 250e-6, 5e-6, 5.0);
  EXPECT_EQ(w.size(), 15u * 50u);
  for (double v : w) EXPECT_TRUE(v == 0.0 || v == 5.0);
  EXPECT_GT(max(w), 4.9);
  EXPECT_LT(min(w), 0.1);
}

TEST(Prbs, StimulusRejectsCoarseSampling) {
  EXPECT_THROW(prbs_stimulus(4, 1e-6, 250e-6, 5.0), std::invalid_argument);
}

}  // namespace
}  // namespace msbist::dsp
