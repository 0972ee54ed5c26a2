// Small dense real matrices.
//
// Circuit MNA systems and state-space models in this library are tiny
// (tens of unknowns), so a straightforward row-major dense matrix covers
// MNA assembly (factored by dsp::SparseLu, dsp/sparse.h), AC analysis and
// the ARX normal equations (partial-pivot LU), state-space discretization
// (matrix exponential) and pole extraction (QR eigenvalues) without
// external dependencies.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace msbist::dsp {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Build from nested initializer-style data; all rows must be equal length.
  explicit Matrix(const std::vector<std::vector<double>>& rows);

  static Matrix identity(std::size_t n);
  static Matrix diagonal(const std::vector<double>& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous row-major storage (rows() * cols() doubles). Lets callers
  /// that rebuild the same-shape matrix every iteration (the MNA solver
  /// workspace) restore or zero it with one bulk copy.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::size_t element_count() const { return data_.size(); }

  /// Reset every entry to zero without reallocating.
  void set_zero();

  Matrix operator+(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(double k) const;
  std::vector<double> operator*(const std::vector<double>& v) const;

  /// Maximum absolute row sum (induced infinity norm).
  double inf_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU decomposition with partial pivoting, reusable across multiple
/// right-hand sides. Factorization (O(n^3)) and substitution (O(n^2)) are
/// separate entry points so a caller whose matrix is constant — a linear
/// circuit marched over many fixed-dt transient steps — can factor once
/// and only substitute per step. A default-constructed decomposition can
/// be (re)filled with factor(), which reuses the internal storage.
class LuDecomposition {
 public:
  LuDecomposition() = default;

  /// Factorizes a (must be square). Throws std::runtime_error when the
  /// matrix is numerically singular.
  explicit LuDecomposition(const Matrix& a) { factor(a); }

  /// (Re)factorize a square matrix in place, reusing prior storage when
  /// the size matches. Same pivoting as the constructor. On a singularity
  /// throw the decomposition is left unfactored.
  void factor(const Matrix& a);

  /// True once factor() (or the factoring constructor) has succeeded.
  bool factored() const { return n_ > 0; }
  std::size_t size() const { return n_; }

  /// Solve A x = b. Throws std::logic_error when the decomposition is
  /// unfactored (never-factored, or a failed factor()).
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A x = b into a caller-owned vector (resized to n). b and x must
  /// be distinct buffers. Avoids the per-solve allocation of solve().
  /// Same unfactored-state error contract as solve().
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// Determinant of the factorized matrix. Throws std::logic_error when
  /// the decomposition is unfactored.
  double determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
};

/// Solve A x = b (one-shot convenience).
std::vector<double> solve(const Matrix& a, const std::vector<double>& b);

/// Matrix exponential e^A by scaling-and-squaring with a Taylor core.
/// Accurate to near machine precision for the well-conditioned, modest-norm
/// matrices produced by circuit discretization.
Matrix expm(const Matrix& a);

/// All eigenvalues of a real square matrix (complex in general), computed
/// by Hessenberg reduction followed by the shifted QR iteration.
std::vector<std::complex<double>> eigenvalues(const Matrix& a);

}  // namespace msbist::dsp
