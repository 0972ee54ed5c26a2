// Unit tests for the dense matrix kernel: LU, inverse, expm, eigenvalues.
#include "dsp/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <random>

namespace msbist::dsp {
namespace {

Matrix random_matrix(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = d(rng);
  }
  return m;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  double e = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) e = std::max(e, std::abs(a(i, j) - b(i, j)));
  }
  return e;
}

// Sort complex values by (real, imag) for order-independent comparison.
std::vector<std::complex<double>> sorted(std::vector<std::complex<double>> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    if (a.real() != b.real()) return a.real() < b.real();
    return a.imag() < b.imag();
  });
  return v;
}

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW(Matrix({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplication) {
  const Matrix a = random_matrix(4, 1);
  const Matrix i = Matrix::identity(4);
  EXPECT_LT(max_abs_diff(a * i, a), 1e-14);
  EXPECT_LT(max_abs_diff(i * a, a), 1e-14);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a({{1.0, 2.0}, {3.0, 4.0}});
  const std::vector<double> v{1.0, 1.0};
  const auto r = a * v;
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 7.0);
}

TEST(Lu, SolvesKnownSystem) {
  const Matrix a({{2.0, 1.0}, {1.0, 3.0}});
  const auto x = solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, ResidualIsSmallForRandomSystems) {
  for (std::size_t n : {2u, 5u, 10u, 20u}) {
    const Matrix a = random_matrix(n, 100 + n);
    std::vector<double> b(n, 1.0);
    const auto x = solve(a, b);
    const auto ax = a * x;
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9) << "n=" << n;
  }
}

TEST(Lu, SingularMatrixThrows) {
  const Matrix a({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_THROW(LuDecomposition{a}, std::runtime_error);
}

TEST(Lu, DeterminantKnownValues) {
  const Matrix a({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_NEAR(LuDecomposition(a).determinant(), -2.0, 1e-12);
  EXPECT_NEAR(LuDecomposition(Matrix::identity(6)).determinant(), 1.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  const Matrix a({{0.0, 1.0}, {1.0, 0.0}});
  const auto x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Expm, ZeroMatrixGivesIdentity) {
  const Matrix z(3, 3);
  EXPECT_LT(max_abs_diff(expm(z), Matrix::identity(3)), 1e-14);
}

TEST(Expm, DiagonalMatrix) {
  const Matrix d = Matrix::diagonal({1.0, -2.0, 0.5});
  const Matrix e = expm(d);
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(e(2, 2), std::exp(0.5), 1e-12);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-14);
}

TEST(Expm, RotationGenerator) {
  // expm([[0, -t], [t, 0]]) is a rotation by t.
  const double t = 1.2;
  const Matrix g({{0.0, -t}, {t, 0.0}});
  const Matrix e = expm(g);
  EXPECT_NEAR(e(0, 0), std::cos(t), 1e-12);
  EXPECT_NEAR(e(0, 1), -std::sin(t), 1e-12);
  EXPECT_NEAR(e(1, 0), std::sin(t), 1e-12);
  EXPECT_NEAR(e(1, 1), std::cos(t), 1e-12);
}

TEST(Expm, LargeNormUsesScaling) {
  const Matrix d = Matrix::diagonal({10.0, -30.0});
  const Matrix e = expm(d);
  EXPECT_NEAR(e(0, 0) / std::exp(10.0), 1.0, 1e-10);
  EXPECT_NEAR(e(1, 1) / std::exp(-30.0), 1.0, 1e-8);
}

TEST(Eigen, DiagonalEigenvalues) {
  const auto ev = sorted(eigenvalues(Matrix::diagonal({3.0, -1.0, 2.0})));
  EXPECT_NEAR(ev[0].real(), -1.0, 1e-9);
  EXPECT_NEAR(ev[1].real(), 2.0, 1e-9);
  EXPECT_NEAR(ev[2].real(), 3.0, 1e-9);
  for (const auto& e : ev) EXPECT_NEAR(e.imag(), 0.0, 1e-9);
}

TEST(Eigen, SymmetricKnownSpectrum) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const auto ev = sorted(eigenvalues(Matrix({{2.0, 1.0}, {1.0, 2.0}})));
  EXPECT_NEAR(ev[0].real(), 1.0, 1e-10);
  EXPECT_NEAR(ev[1].real(), 3.0, 1e-10);
}

TEST(Eigen, ComplexPairFromRotation) {
  // [[0,-1],[1,0]] has eigenvalues +/- i.
  const auto ev = sorted(eigenvalues(Matrix({{0.0, -1.0}, {1.0, 0.0}})));
  EXPECT_NEAR(ev[0].real(), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(ev[0].imag()), 1.0, 1e-10);
  EXPECT_NEAR(ev[1].imag(), -ev[0].imag(), 1e-10);
}

TEST(Eigen, TraceAndDeterminantInvariants) {
  for (std::size_t n : {3u, 5u, 8u}) {
    const Matrix a = random_matrix(n, 500 + n);
    const auto ev = eigenvalues(a);
    std::complex<double> tr{0.0, 0.0}, det{1.0, 0.0};
    for (const auto& e : ev) {
      tr += e;
      det *= e;
    }
    double trace_a = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace_a += a(i, i);
    EXPECT_NEAR(tr.real(), trace_a, 1e-8) << "n=" << n;
    EXPECT_NEAR(tr.imag(), 0.0, 1e-8) << "n=" << n;
    EXPECT_NEAR(det.real(), LuDecomposition(a).determinant(), 1e-7) << "n=" << n;
  }
}

TEST(Eigen, UpperTriangularReadsDiagonal) {
  Matrix a(4, 4);
  const double diag[] = {1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, i) = diag[i];
    for (std::size_t j = i + 1; j < 4; ++j) a(i, j) = 0.7;
  }
  auto ev = sorted(eigenvalues(a));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(ev[i].real(), diag[i], 1e-9);
}

}  // namespace
}  // namespace msbist::dsp
