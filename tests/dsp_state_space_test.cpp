// Unit tests for continuous-time state-space models.
#include "dsp/state_space.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "dsp_test_util.h"

namespace msbist::dsp {
namespace {

// First-order lag H(s) = 1/(s + a): impulse response e^{-a t}.
StateSpace first_order(double a) {
  return StateSpace::from_transfer_function({1.0}, {1.0, a});
}

TEST(StateSpace, RejectsImproperTransferFunction) {
  EXPECT_THROW(StateSpace::from_transfer_function({1.0, 0.0, 0.0}, {1.0, 1.0}),
               std::invalid_argument);
}

TEST(StateSpace, RejectsMoreZerosThanPoles) {
  const std::vector<std::complex<double>> zeros{{-1.0, 0.0}, {-2.0, 0.0}};
  const std::vector<std::complex<double>> poles{{-3.0, 0.0}};
  EXPECT_THROW(StateSpace::from_zpk(zeros, poles, 1.0), std::invalid_argument);
}

TEST(StateSpace, FirstOrderImpulseIsExponential) {
  const double a = 100.0;
  const StateSpace sys = first_order(a);
  const double dt = 1e-4;
  const auto h = sys.impulse(dt, 200);
  for (std::size_t k = 0; k < h.size(); ++k) {
    const double expect = std::exp(-a * dt * static_cast<double>(k));
    EXPECT_NEAR(h[k], expect, 1e-9) << "k=" << k;
  }
}

TEST(StateSpace, FirstOrderStepSettlesToDcGain) {
  const StateSpace sys = first_order(50.0);
  const auto y = sys.step(1e-3, 400);
  EXPECT_NEAR(y.back(), sys.dc_gain(), 1e-9);
  EXPECT_NEAR(sys.dc_gain(), 1.0 / 50.0, 1e-12);
}

TEST(StateSpace, SecondOrderPolesRecovered) {
  // H(s) = 1 / (s^2 + 2 zeta wn s + wn^2), wn = 2, zeta = 0.25 -> complex poles.
  const double wn = 2.0, zeta = 0.25;
  const StateSpace sys =
      StateSpace::from_transfer_function({1.0}, {1.0, 2.0 * zeta * wn, wn * wn});
  auto p = sys.poles();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0].real(), -zeta * wn, 1e-9);
  EXPECT_NEAR(std::abs(p[0].imag()), wn * std::sqrt(1 - zeta * zeta), 1e-9);
  EXPECT_TRUE(sys.is_stable());
}

TEST(StateSpace, UnstablePoleDetected) {
  const StateSpace sys = StateSpace::from_transfer_function({1.0}, {1.0, -1.0});
  EXPECT_FALSE(sys.is_stable());
}

TEST(StateSpace, ZpkRoundTrip) {
  // H(s) = 3 (s+1) / ((s+2)(s+5)); dc gain = 3*1/10 = 0.3.
  const StateSpace sys = StateSpace::from_zpk({{-1.0, 0.0}}, {{-2.0, 0.0}, {-5.0, 0.0}}, 3.0);
  EXPECT_NEAR(sys.dc_gain(), 0.3, 1e-12);
  const auto p = sys.poles();
  double prod = 1.0;
  for (const auto& e : p) prod *= e.real();
  EXPECT_NEAR(prod, 10.0, 1e-9);
}

TEST(StateSpace, ComplexZpkPair) {
  const std::complex<double> p1{-1.0, 2.0};
  const StateSpace sys = StateSpace::from_zpk({}, {p1, std::conj(p1)}, 5.0);
  EXPECT_NEAR(sys.dc_gain(), 5.0 / 5.0, 1e-12);  // |p|^2 = 5
  EXPECT_TRUE(sys.is_stable());
}

TEST(StateSpace, LsimSuperposition) {
  const StateSpace sys = first_order(30.0);
  const double dt = 1e-3;
  std::vector<double> u1(100), u2(100);
  for (std::size_t i = 0; i < 100; ++i) {
    u1[i] = std::sin(0.2 * static_cast<double>(i));
    u2[i] = (i % 7 == 0) ? 1.0 : -0.5;
  }
  const auto y1 = sys.lsim(u1, dt);
  const auto y2 = sys.lsim(u2, dt);
  const auto ysum = sys.lsim(add(u1, u2), dt);
  EXPECT_TRUE(approx_equal(ysum, add(y1, y2), 1e-10));
}

TEST(StateSpace, StepEqualsIntegralOfImpulse) {
  const StateSpace sys = first_order(40.0);
  const double dt = 1e-4;
  const std::size_t n = 300;
  const auto h = sys.impulse(dt, n);
  const auto s = sys.step(dt, n);
  // Cumulative sum of h * dt approximates the step response. ZOH-exactness
  // makes the match tight for this first-order system when compared at
  // midpoint-shifted indices; a loose tolerance suffices here.
  double acc = 0.0;
  for (std::size_t k = 1; k < n; ++k) {
    acc += h[k - 1] * dt;
    EXPECT_NEAR(s[k], acc, 5e-3) << "k=" << k;
  }
}

TEST(StateSpace, PureGainSystem) {
  const StateSpace sys = StateSpace::from_transfer_function({2.5}, {1.0});
  EXPECT_EQ(sys.order(), 0u);
  EXPECT_NEAR(sys.dc_gain(), 2.5, 1e-15);
  const auto y = sys.lsim({1.0, 2.0, 3.0}, 0.1);
  EXPECT_NEAR(y[2], 7.5, 1e-12);
}

TEST(StateSpace, IntegratorHandlesSingularA) {
  // H(s) = 1/s: the ZOH discretization must work despite det(A) == 0.
  const StateSpace sys = StateSpace::from_transfer_function({1.0}, {1.0, 0.0});
  const double dt = 0.01;
  const auto y = sys.step(dt, 101);
  // Integral of a unit step is t.
  EXPECT_NEAR(y[100], 1.0, 1e-9);
}

TEST(StateSpace, DcGainSingularAThrows) {
  const StateSpace sys = StateSpace::from_transfer_function({1.0}, {1.0, 0.0});
  EXPECT_THROW(sys.dc_gain(), std::runtime_error);
}

TEST(StateSpace, InvalidDtThrows) {
  const StateSpace sys = first_order(1.0);
  EXPECT_THROW(sys.impulse(0.0, 10), std::invalid_argument);
  EXPECT_THROW(sys.lsim({1.0}, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace msbist::dsp
