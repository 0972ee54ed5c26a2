// Unit tests for continuous-time state-space models.
#include "dsp/state_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

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

TEST(StateSpace, SecondOrderPolesRecovered) {
  // H(s) = 1 / (s^2 + 2 zeta wn s + wn^2), wn = 2, zeta = 0.25 -> complex poles.
  const double wn = 2.0, zeta = 0.25;
  const StateSpace sys =
      StateSpace::from_transfer_function({1.0}, {1.0, 2.0 * zeta * wn, wn * wn});
  auto p = eigenvalues(sys.a());
  ASSERT_EQ(p.size(), 2u);
  for (const auto& e : p) {
    EXPECT_NEAR(e.real(), -zeta * wn, 1e-9);
    EXPECT_NEAR(std::abs(e.imag()), wn * std::sqrt(1 - zeta * zeta), 1e-9);
  }
}

// from_zpk builds the controllable canonical form: the first row of A is
// the negated monic denominator (below its leading 1), C the numerator
// coefficients. H(0) = C(0, n-1) / -A(0, n-1) for a strictly proper H.
TEST(StateSpace, ZpkRoundTrip) {
  // H(s) = 3 (s+1) / ((s+2)(s+5)) = (3s + 3) / (s^2 + 7s + 10).
  const StateSpace sys = StateSpace::from_zpk({{-1.0, 0.0}}, {{-2.0, 0.0}, {-5.0, 0.0}}, 3.0);
  ASSERT_EQ(sys.order(), 2u);
  EXPECT_NEAR(sys.a()(0, 0), -7.0, 1e-12);
  EXPECT_NEAR(sys.a()(0, 1), -10.0, 1e-12);
  EXPECT_EQ(sys.a()(1, 0), 1.0);
  EXPECT_EQ(sys.a()(1, 1), 0.0);
  EXPECT_NEAR(sys.c()(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(sys.c()(0, 1), 3.0, 1e-12);
  EXPECT_EQ(sys.d(), 0.0);
  // Back to the poles: the eigenvalues of A.
  auto p = eigenvalues(sys.a());
  ASSERT_EQ(p.size(), 2u);
  std::sort(p.begin(), p.end(), [](auto x, auto y) { return x.real() < y.real(); });
  EXPECT_NEAR(p[0].real(), -5.0, 1e-9);
  EXPECT_NEAR(p[1].real(), -2.0, 1e-9);
}

TEST(StateSpace, ComplexZpkPair) {
  // H(s) = 5 / ((s - p)(s - conj p)) = 5 / (s^2 + 2s + 5): dc gain 1.
  const std::complex<double> p1{-1.0, 2.0};
  const StateSpace sys = StateSpace::from_zpk({}, {p1, std::conj(p1)}, 5.0);
  ASSERT_EQ(sys.order(), 2u);
  EXPECT_NEAR(sys.a()(0, 0), -2.0, 1e-12);
  EXPECT_NEAR(sys.a()(0, 1), -5.0, 1e-12);
  EXPECT_NEAR(sys.c()(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(sys.c()(0, 1), 5.0, 1e-12);
}

TEST(StateSpace, PureGainSystem) {
  const StateSpace sys = StateSpace::from_transfer_function({2.5}, {1.0});
  EXPECT_EQ(sys.order(), 0u);
  EXPECT_EQ(sys.d(), 2.5);
  // A pure gain's impulse is D at t = 0 only, reported as D/dt.
  const auto y = sys.impulse(0.1, 3);
  EXPECT_NEAR(y[0], 25.0, 1e-12);
  EXPECT_EQ(y[1], 0.0);
  EXPECT_EQ(y[2], 0.0);
}

TEST(StateSpace, IntegratorHandlesSingularA) {
  // H(s) = 1/s: the discretization must work despite det(A) == 0, and
  // the impulse response of an integrator is a unit step.
  const StateSpace sys = StateSpace::from_transfer_function({1.0}, {1.0, 0.0});
  const auto y = sys.impulse(0.01, 101);
  for (std::size_t k = 0; k < y.size(); ++k) EXPECT_NEAR(y[k], 1.0, 1e-9) << "k=" << k;
}

TEST(StateSpace, InvalidDtThrows) {
  const StateSpace sys = first_order(1.0);
  EXPECT_THROW(sys.impulse(0.0, 10), std::invalid_argument);
  EXPECT_THROW(sys.impulse(-1.0, 10), std::invalid_argument);
}

// The characteristic polynomial from_zpk expands from the poles, read
// back from the first row of A (the monic coefficients below the lead,
// negated).
TEST(Polynomial, FromRootsReal) {
  // (x-1)(x+2) = x^2 + x - 2.
  const StateSpace sys = StateSpace::from_zpk({}, {{1.0, 0.0}, {-2.0, 0.0}}, 1.0);
  ASSERT_EQ(sys.order(), 2u);
  EXPECT_NEAR(sys.a()(0, 0), -1.0, 1e-12);
  EXPECT_NEAR(sys.a()(0, 1), 2.0, 1e-12);
}

TEST(Polynomial, FromRootsConjugatePair) {
  // (x - (1+2i))(x - (1-2i)) = x^2 - 2x + 5.
  const StateSpace sys = StateSpace::from_zpk({}, {{1.0, 2.0}, {1.0, -2.0}}, 1.0);
  ASSERT_EQ(sys.order(), 2u);
  EXPECT_NEAR(sys.a()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(sys.a()(0, 1), -5.0, 1e-12);
}

TEST(Polynomial, UnpairedComplexRootThrows) {
  EXPECT_THROW(StateSpace::from_zpk({}, {{1.0, 2.0}}, 1.0), std::invalid_argument);
  EXPECT_THROW(StateSpace::from_zpk({{1.0, 2.0}}, {{-1.0, 0.0}, {-2.0, 0.0}}, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace msbist::dsp
