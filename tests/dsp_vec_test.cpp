// Unit tests for dsp/vec.h — elementary vector arithmetic and statistics —
// and for the test-side helpers of dsp_test_util.h that other tests use
// as oracles.
#include "dsp/vec.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dsp_test_util.h"

namespace msbist::dsp {
namespace {

TEST(Vec, AddSubMul) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_EQ(add(a, b), (std::vector<double>{5.0, 7.0, 9.0}));
  EXPECT_EQ(mul(a, b), (std::vector<double>{4.0, 10.0, 18.0}));
}

TEST(Vec, SizeMismatchThrows) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(mul(a, b), std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(Vec, DotAndNorm) {
  const std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
}

TEST(Vec, Statistics) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sum(a), 10.0);
  EXPECT_DOUBLE_EQ(mean(a), 2.5);
  EXPECT_NEAR(stddev(a), 1.118033988749895, 1e-12);
}

TEST(Vec, EmptyStatisticsThrow) {
  const std::vector<double> e;
  EXPECT_THROW(mean(e), std::invalid_argument);
  EXPECT_THROW(max(e), std::invalid_argument);
  EXPECT_THROW(min(e), std::invalid_argument);
  EXPECT_THROW(argmax(e), std::invalid_argument);
}

TEST(Vec, MinMaxArgmax) {
  const std::vector<double> a{1.0, -5.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(max(a), 3.0);
  EXPECT_DOUBLE_EQ(min(a), -5.0);
  EXPECT_DOUBLE_EQ(max_abs(a), 5.0);
  EXPECT_EQ(argmax(a), 2u);
  EXPECT_EQ(argmax_abs(a), 1u);
}

TEST(Vec, MaxAbsOfEmptyIsZero) { EXPECT_DOUBLE_EQ(max_abs({}), 0.0); }

TEST(Vec, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Vec, LinspaceSinglePoint) {
  const auto v = linspace(3.0, 9.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
}

TEST(Vec, LinspaceZeroThrows) { EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument); }

TEST(Vec, ApproxEqual) {
  EXPECT_TRUE(approx_equal({1.0, 2.0}, {1.0 + 1e-10, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal({1.0, 2.0}, {1.1, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal({1.0}, {1.0, 2.0}, 1e-9));
}

}  // namespace
}  // namespace msbist::dsp
