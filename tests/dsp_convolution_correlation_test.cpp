// Unit tests for convolution and cross-correlation.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dsp/convolution.h"
#include "dsp/correlation.h"
#include "dsp/vec.h"
#include "dsp_test_util.h"

namespace msbist::dsp {
namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = d(rng);
  return x;
}

TEST(Convolution, KnownSmallCase) {
  // (1 + 2x)(3 + 4x) = 3 + 10x + 8x^2 as sequence convolution.
  const auto r = convolve_direct({1.0, 2.0}, {3.0, 4.0});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 10.0);
  EXPECT_DOUBLE_EQ(r[2], 8.0);
}

TEST(Convolution, IdentityKernel) {
  const std::vector<double> x{1.0, -2.0, 3.0};
  const auto r = convolve_direct(x, {1.0});
  EXPECT_EQ(r, x);
}

TEST(Convolution, EmptyOperands) {
  EXPECT_TRUE(convolve_direct({}, {1.0}).empty());
  EXPECT_TRUE(convolve_fft({1.0}, {}).empty());
}

TEST(Convolution, FftMatchesDirect) {
  const auto a = random_vec(130, 11);
  const auto b = random_vec(77, 22);
  const auto d = convolve_direct(a, b);
  const auto f = convolve_fft(a, b);
  ASSERT_EQ(d.size(), f.size());
  EXPECT_TRUE(approx_equal(d, f, 1e-9));
}

TEST(Convolution, Commutativity) {
  const auto a = random_vec(20, 3);
  const auto b = random_vec(31, 4);
  EXPECT_TRUE(approx_equal(convolve(a, b), convolve(b, a), 1e-10));
}

TEST(Convolution, DistributesOverAddition) {
  const auto a = random_vec(16, 5);
  const auto b = random_vec(16, 6);
  const auto k = random_vec(9, 7);
  const auto lhs = convolve(add(a, b), k);
  const auto rhs = add(convolve(a, k), convolve(b, k));
  EXPECT_TRUE(approx_equal(lhs, rhs, 1e-10));
}

TEST(Correlation, AutocorrelationPeaksAtZeroLag) {
  const auto x = random_vec(64, 10);
  const auto r = cross_correlate(x, x);
  // Zero lag sits at index x.size()-1.
  EXPECT_EQ(argmax_abs(r), x.size() - 1);
  EXPECT_NEAR(r[x.size() - 1], dot(x, x), 1e-9);
}

}  // namespace
}  // namespace msbist::dsp
