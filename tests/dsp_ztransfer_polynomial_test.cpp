// Unit tests for z-domain transfer functions and polynomial utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "dsp/polynomial.h"
#include "dsp/vec.h"
#include "dsp/ztransfer.h"
#include "dsp_test_util.h"

namespace msbist::dsp {
namespace {

TEST(Polynomial, Polyval) {
  // 2x^2 - 3x + 1 at x = 2 -> 3.
  EXPECT_DOUBLE_EQ(polyval({2.0, -3.0, 1.0}, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(polyval({}, 5.0), 0.0);
}

TEST(Polynomial, FromRootsReal) {
  // (x-1)(x+2) = x^2 + x - 2.
  const Poly p = poly_from_roots({{1.0, 0.0}, {-2.0, 0.0}});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 1.0, 1e-12);
  EXPECT_NEAR(p[2], -2.0, 1e-12);
}

TEST(Polynomial, FromRootsConjugatePair) {
  // (x - (1+2i))(x - (1-2i)) = x^2 - 2x + 5.
  const Poly p = poly_from_roots({{1.0, 2.0}, {1.0, -2.0}});
  EXPECT_NEAR(p[1], -2.0, 1e-12);
  EXPECT_NEAR(p[2], 5.0, 1e-12);
}

TEST(Polynomial, UnpairedComplexRootThrows) {
  EXPECT_THROW(poly_from_roots({{1.0, 2.0}}), std::invalid_argument);
}

TEST(Polynomial, RootsRoundTrip) {
  const std::vector<std::complex<double>> roots{
      {-1.0, 0.0}, {-3.0, 0.0}, {-2.0, 1.5}, {-2.0, -1.5}};
  const Poly p = poly_from_roots(roots);
  auto found = poly_roots(p);
  // Every original root must be matched by a computed one.
  for (const auto& r : roots) {
    double best = 1e9;
    for (const auto& f : found) best = std::min(best, std::abs(f - r));
    EXPECT_LT(best, 1e-8);
  }
}

TEST(Polynomial, RootsOfQuadratic) {
  // x^2 - 5x + 6 -> roots 2, 3.
  auto r = poly_roots({1.0, -5.0, 6.0});
  ASSERT_EQ(r.size(), 2u);
  const double lo = std::min(r[0].real(), r[1].real());
  const double hi = std::max(r[0].real(), r[1].real());
  EXPECT_NEAR(lo, 2.0, 1e-10);
  EXPECT_NEAR(hi, 3.0, 1e-10);
}

TEST(Polynomial, ConstantThrows) {
  EXPECT_THROW(poly_roots({5.0}), std::invalid_argument);
  EXPECT_THROW(poly_roots({0.0, 0.0}), std::invalid_argument);
}

TEST(Polynomial, MulMatchesConvolution) {
  const Poly a{1.0, 2.0};
  const Poly b{1.0, -1.0, 3.0};
  const Poly p = poly_mul(a, b);
  // (x+2)(x^2-x+3) = x^3 + x^2 + x + 6.
  const Poly expect{1.0, 1.0, 1.0, 6.0};
  EXPECT_TRUE(approx_equal(p, expect, 1e-12));
}

TEST(Polynomial, Derivative) {
  // d/dx (3x^3 + 2x - 7) = 9x^2 + 2.
  const Poly d = poly_derivative({3.0, 0.0, 2.0, -7.0});
  EXPECT_TRUE(approx_equal(d, {9.0, 0.0, 2.0}, 1e-12));
}

TEST(ZTransfer, RejectsZeroLeadingDen) {
  EXPECT_THROW(ZTransfer({1.0}, {0.0, 1.0}), std::invalid_argument);
}

TEST(ZTransfer, ScIntegratorImpulseIsDelayedStep) {
  // H(z) = z^-1/(k(1-z^-1)): impulse response 0, 1/k, 1/k, ... (accumulator).
  const double k = 6.8;
  const auto h = ZTransfer::sc_integrator(k).impulse(6);
  EXPECT_NEAR(h[0], 0.0, 1e-15);
  for (std::size_t i = 1; i < h.size(); ++i) EXPECT_NEAR(h[i], 1.0 / k, 1e-12);
}

TEST(ZTransfer, ScIntegratorStepIsRamp) {
  const double k = 6.8;
  const auto y = ZTransfer::sc_integrator(k).step(5);
  for (std::size_t n = 0; n < y.size(); ++n) {
    EXPECT_NEAR(y[n], static_cast<double>(n) / k, 1e-12) << "n=" << n;
  }
}

TEST(ZTransfer, ScIntegratorPoleAtUnity) {
  const auto p = ZTransfer::sc_integrator().poles();
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NEAR(p[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(p[0].imag(), 0.0, 1e-12);
  EXPECT_FALSE(ZTransfer::sc_integrator().is_stable());
}

TEST(ZTransfer, FilterLinearity) {
  const ZTransfer h({0.5, 0.25}, {1.0, -0.3});
  std::vector<double> u1{1.0, 0.0, -1.0, 2.0, 0.5};
  std::vector<double> u2{0.0, 1.0, 1.0, -1.0, 0.25};
  const auto lhs = h.filter(add(u1, u2));
  const auto rhs = add(h.filter(u1), h.filter(u2));
  EXPECT_TRUE(approx_equal(lhs, rhs, 1e-12));
}

TEST(ZTransfer, FirstOrderLowpassDcGainIsUnity) {
  const ZTransfer h = ZTransfer::first_order_lowpass(1000.0, 1e-5);
  const auto H0 = h.frequency_response(0.0);
  EXPECT_NEAR(std::abs(H0), 1.0, 1e-9);
  EXPECT_TRUE(h.is_stable());
}

TEST(ZTransfer, LowpassAttenuatesAtCutoff) {
  const double fc = 1000.0, dt = 1e-5;
  const ZTransfer h = ZTransfer::first_order_lowpass(fc, dt);
  const double w = 2.0 * std::numbers::pi * fc * dt;
  // -3 dB at the cutoff (bilinear without prewarp is near-exact well
  // below Nyquist; fc/fs = 0.01 here).
  EXPECT_NEAR(std::abs(h.frequency_response(w)), 1.0 / std::sqrt(2.0), 1e-3);
}

TEST(ZTransfer, FrequencyResponseMatchesFilterOnSine) {
  const ZTransfer h({0.2, 0.3}, {1.0, -0.5});
  const double w = 0.3;
  const std::size_t n = 4000;
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) u[i] = std::cos(w * static_cast<double>(i));
  const auto y = h.filter(u);
  const auto H = h.frequency_response(w);
  // After the transient dies out, output amplitude = |H|.
  double peak = 0.0;
  for (std::size_t i = n - 200; i < n; ++i) peak = std::max(peak, std::abs(y[i]));
  EXPECT_NEAR(peak, std::abs(H), 1e-3);
}

TEST(ZTransfer, StepOfStableSystemSettlesToDcGain) {
  const ZTransfer h({0.4}, {1.0, -0.6});
  const auto y = h.step(200);
  EXPECT_NEAR(y.back(), std::abs(h.frequency_response(0.0)), 1e-9);
}

}  // namespace
}  // namespace msbist::dsp
