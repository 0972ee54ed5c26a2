// Unit tests for the sparse CSR matrix and the symbolic/numeric-split
// sparse LU, plus the hardened unfactored-state error contract shared
// with the dense engine: solving or querying a never-factored (or
// failed) decomposition must be a hard error on both backends, never a
// silently empty answer.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "dsp/matrix.h"
#include "dsp/sparse.h"

namespace msbist::dsp {
namespace {

// MNA-shaped 4-unknown system: 3 node rows plus one voltage-source
// branch row with a structural zero on its diagonal — the layout that
// breaks naive no-pivot sparse LU.
SparseMatrix mna_example() {
  return SparseMatrix::from_triplets(
      4, 4,
      {{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 3.0}, {1, 2, -1.0},
       {2, 1, -1.0}, {2, 2, 1.5}, {0, 3, 1.0}, {3, 0, 1.0}});
}

TEST(SparseMatrix, FromTripletsSumsDuplicatesAndSortsRows) {
  SparseMatrix m = SparseMatrix::from_triplets(
      2, 3, {{0, 2, 1.0}, {0, 0, 5.0}, {0, 2, 0.5}, {1, 1, -2.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.at(0, 0), 5.0);
  EXPECT_EQ(m.at(0, 2), 1.5);
  EXPECT_EQ(m.at(1, 1), -2.0);
  EXPECT_EQ(m.at(0, 1), 0.0);  // absent coordinate reads as zero
  EXPECT_EQ(m.index_of(0, 1), SparseMatrix::npos);
  EXPECT_NE(m.find(0, 2), nullptr);
  EXPECT_EQ(*m.find(0, 2), 1.5);
  // Column indices sorted within each row.
  EXPECT_EQ(m.col_idx(), (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(m.row_ptr(), (std::vector<int>{0, 2, 3}));
}

TEST(SparseMatrix, TripletOutOfRangeThrows) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, -1, 1.0}}),
               std::invalid_argument);
}

TEST(SparseMatrix, PatternConstructionDeduplicates) {
  SparseMatrix m = SparseMatrix::from_pattern(
      2, 2, {{1, 1}, {0, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.at(0, 0), 0.0);
  *m.find(1, 1) = 7.0;
  EXPECT_EQ(m.at(1, 1), 7.0);
}

TEST(SparseLu, SolvesMnaSystemWithStructuralZeroDiagonal) {
  const SparseMatrix a = mna_example();
  SparseLu lu;
  lu.factor(a);
  ASSERT_TRUE(lu.factored());
  const std::vector<double> b{1.0, 0.0, -2.0, 0.5};
  const std::vector<double> x = lu.solve(b);
  const std::vector<double> residual = a * x;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(residual[i], b[i], 1e-12);
  }
  // Cross-check against the dense engine.
  const std::vector<double> xd = LuDecomposition(a.to_dense()).solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], xd[i], 1e-12);
  }
}

TEST(SparseLu, RefactorReproducesFactorBitwise) {
  SparseMatrix a = mna_example();
  SparseLu lu;
  lu.factor(a);
  // Perturb the values (same pattern), refactor, and compare with a
  // from-scratch factorization of the same matrix: the replayed update
  // schedule preserves accumulation order, so solutions must be
  // bit-identical.
  for (std::size_t p = 0; p < a.nnz(); ++p) a.values()[p] *= 1.25;
  lu.refactor(a);
  EXPECT_EQ(lu.stats().analyses, 1u);
  EXPECT_EQ(lu.stats().factors, 1u);
  EXPECT_EQ(lu.stats().refactors, 1u);
  EXPECT_EQ(lu.stats().pivot_fallbacks, 0u);

  SparseLu fresh;
  fresh.factor(a);
  const std::vector<double> b{0.25, -1.0, 2.0, 1.0};
  const std::vector<double> x_re = lu.solve(b);
  const std::vector<double> x_fresh = fresh.solve(b);
  ASSERT_EQ(x_re.size(), x_fresh.size());
  for (std::size_t i = 0; i < x_re.size(); ++i) {
    EXPECT_EQ(x_re[i], x_fresh[i]);
  }
}

TEST(SparseLu, RefactorEscalatesOnPatternChange) {
  SparseLu lu;
  lu.factor(mna_example());
  const SparseMatrix other = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {1, 1, 3.0}});
  lu.refactor(other);  // different pattern -> full re-analysis + factor
  EXPECT_EQ(lu.stats().analyses, 2u);
  EXPECT_EQ(lu.stats().factors, 2u);
  EXPECT_EQ(lu.stats().refactors, 0u);
  const std::vector<double> x = lu.solve({4.0, 9.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(SparseLu, RefactorPivotDegenerationFallsBackToFreshPivoting) {
  // factor() on [[2,1],[1,2]] pivots on row 0 for the first column;
  // [[0,1],[1,2]] zeroes that pivot slot while staying nonsingular, so
  // refactor must escalate to a fresh pivot search and still solve.
  SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  SparseLu lu;
  lu.factor(a);
  *a.find(0, 0) = 0.0;
  lu.refactor(a);
  EXPECT_EQ(lu.stats().pivot_fallbacks, 1u);
  ASSERT_TRUE(lu.factored());
  const std::vector<double> x = lu.solve({1.0, 0.0});
  // [[0,1],[1,2]] x = [1,0] -> x = [-2, 1]
  EXPECT_NEAR(x[0], -2.0, 1e-14);
  EXPECT_NEAR(x[1], 1.0, 1e-14);
}

TEST(SparseLu, SingularMatrixThrowsRuntimeErrorAndStaysUnfactored) {
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  SparseLu lu;
  EXPECT_THROW(lu.factor(a), std::runtime_error);
  EXPECT_FALSE(lu.factored());
  EXPECT_THROW(lu.solve({1.0, 2.0}), std::logic_error);
}

TEST(SparseLu, UnfactoredUseIsHardError) {
  const SparseLu lu;
  std::vector<double> x;
  EXPECT_THROW(lu.solve({}), std::logic_error);
  EXPECT_THROW(lu.solve_into({}, x), std::logic_error);
}

// The dense engine shares the hardened contract: before this fix a
// never-factored LuDecomposition "solved" an empty rhs to an empty
// vector and reported determinant ±1.
TEST(DenseLu, UnfactoredUseIsHardError) {
  const LuDecomposition lu;
  std::vector<double> x;
  EXPECT_THROW(lu.solve({}), std::logic_error);
  EXPECT_THROW(lu.solve_into({}, x), std::logic_error);
  EXPECT_THROW(lu.determinant(), std::logic_error);
}

TEST(DenseLu, FailedFactorLeavesHardErrorState) {
  Matrix singular(2, 2);
  singular(0, 0) = 1.0;
  singular(0, 1) = 2.0;
  singular(1, 0) = 2.0;
  singular(1, 1) = 4.0;
  LuDecomposition lu;
  EXPECT_THROW(lu.factor(singular), std::runtime_error);
  EXPECT_FALSE(lu.factored());
  EXPECT_THROW(lu.solve({1.0, 1.0}), std::logic_error);
  EXPECT_THROW(lu.determinant(), std::logic_error);
}

TEST(SparseLu, MinimumDegreeOrderingBoundsArrowheadFill) {
  // Arrowhead matrix: dense first row/column plus the diagonal. Natural
  // order fills in completely (~n^2 entries); eliminating the hub last
  // keeps L+U linear in n.
  const int n = 24;
  std::vector<std::tuple<int, int, double>> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 4.0});
    if (i > 0) {
      t.push_back({0, i, 1.0});
      t.push_back({i, 0, 1.0});
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(n, n, t);
  SparseLu lu;
  lu.factor(a);
  EXPECT_LE(lu.lu_nnz(), static_cast<std::size_t>(4 * n));
  // Solution sanity: compare to dense.
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) b[i] = 0.1 * i - 1.0;
  const std::vector<double> xs = lu.solve(b);
  const std::vector<double> xd = LuDecomposition(a.to_dense()).solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);
}

TEST(BatchSparseLu, LockstepMatchesScalarPerVariant) {
  const SparseMatrix base = mna_example();
  SparseLu scalar;
  scalar.factor(base);

  const std::size_t kVariants = 5;
  std::vector<double> a_soa(base.nnz() * kVariants);
  for (std::size_t p = 0; p < base.nnz(); ++p) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      a_soa[p * kVariants + v] =
          base.values()[p] * (1.0 + 0.03 * static_cast<double>(v));
    }
  }
  BatchSparseLu batch;
  batch.bind(scalar, kVariants);
  batch.refactor_batch(a_soa.data());
  EXPECT_EQ(batch.fallback_count(), 0u);

  const std::vector<double> b{1.0, -0.5, 0.25, 2.0};
  std::vector<double> x_soa(base.nnz(), 0.0);
  x_soa.assign(4 * kVariants, 0.0);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      x_soa[r * kVariants + v] = b[r];
    }
  }
  batch.solve_batch(x_soa.data());

  for (std::size_t v = 0; v < kVariants; ++v) {
    SparseMatrix av = base;
    for (std::size_t p = 0; p < base.nnz(); ++p) {
      av.values()[p] = a_soa[p * kVariants + v];
    }
    SparseLu ref;
    ref.factor(av);
    const std::vector<double> xv = ref.solve(b);
    for (std::size_t r = 0; r < 4; ++r) {
      const double got = x_soa[r * kVariants + v];
      EXPECT_NEAR(got, xv[r], 1e-12 * (1.0 + std::abs(xv[r])))
          << "variant " << v << " row " << r;
    }
  }
}

TEST(BatchSparseLu, DegenerateVariantFallsBackPrivately) {
  SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  SparseLu scalar;
  scalar.factor(a);

  const std::size_t kVariants = 3;
  std::vector<double> a_soa(a.nnz() * kVariants);
  for (std::size_t p = 0; p < a.nnz(); ++p) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      a_soa[p * kVariants + v] = a.values()[p];
    }
  }
  // Variant 1 zeroes the shared first pivot (slot (0,0)) but stays
  // nonsingular: [[0,1],[1,2]].
  a_soa[a.index_of(0, 0) * kVariants + 1] = 0.0;

  BatchSparseLu batch;
  batch.bind(scalar, kVariants);
  batch.refactor_batch(a_soa.data());
  EXPECT_EQ(batch.fallback_count(), 1u);

  std::vector<double> x_soa(2 * kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    x_soa[0 * kVariants + v] = 1.0;
    x_soa[1 * kVariants + v] = 0.0;
  }
  batch.solve_batch(x_soa.data());
  // Variants 0 and 2: [[2,1],[1,2]] x = [1,0] -> [2/3, -1/3].
  EXPECT_NEAR(x_soa[0 * kVariants + 0], 2.0 / 3.0, 1e-14);
  EXPECT_NEAR(x_soa[1 * kVariants + 0], -1.0 / 3.0, 1e-14);
  EXPECT_NEAR(x_soa[0 * kVariants + 2], 2.0 / 3.0, 1e-14);
  EXPECT_NEAR(x_soa[1 * kVariants + 2], -1.0 / 3.0, 1e-14);
  // Variant 1: [[0,1],[1,2]] x = [1,0] -> [-2, 1].
  EXPECT_NEAR(x_soa[0 * kVariants + 1], -2.0, 1e-14);
  EXPECT_NEAR(x_soa[1 * kVariants + 1], 1.0, 1e-14);
}

TEST(BatchSparseLu, MisuseIsHardError) {
  SparseLu unfactored;
  BatchSparseLu batch;
  EXPECT_THROW(batch.bind(unfactored, 4), std::logic_error);

  SparseLu scalar;
  scalar.factor(mna_example());
  batch.bind(scalar, 2);
  std::vector<double> x(4 * 2, 1.0);
  // solve before any refactor_batch: no numeric state yet.
  EXPECT_THROW(batch.solve_batch(x.data()), std::logic_error);
}

}  // namespace
}  // namespace msbist::dsp
