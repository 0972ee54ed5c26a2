#include "dsp/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msbist::dsp {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

double sign_of(double magnitude, double sign_source) {
  return sign_source >= 0.0 ? std::abs(magnitude) : -std::abs(magnitude);
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(const std::vector<std::vector<double>>& rows) {
  rows_ = rows.size();
  cols_ = rows.empty() ? 0 : rows.front().size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    require(r.size() == cols_, "Matrix: ragged initializer rows");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

void Matrix::set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const std::vector<double>& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  return data_[r * cols_ + c];
}

Matrix Matrix::operator+(const Matrix& o) const {
  require(rows_ == o.rows_ && cols_ == o.cols_, "Matrix: size mismatch in +");
  Matrix r(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] = data_[i] + o.data_[i];
  return r;
}

Matrix Matrix::operator*(const Matrix& o) const {
  require(cols_ == o.rows_, "Matrix: size mismatch in *");
  Matrix r(rows_, o.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < o.cols_; ++j) r(i, j) += aik * o(k, j);
    }
  }
  return r;
}

Matrix Matrix::operator*(double k) const {
  Matrix r(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] = data_[i] * k;
  return r;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
  require(cols_ == v.size(), "Matrix: size mismatch in matrix-vector product");
  std::vector<double> r(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    r[i] = acc;
  }
  return r;
}

double Matrix::inf_norm() const {
  double best = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) row += std::abs((*this)(i, j));
    best = std::max(best, row);
  }
  return best;
}

void LuDecomposition::factor(const Matrix& a) {
  require(a.rows() == a.cols(), "LuDecomposition: matrix must be square");
  n_ = 0;  // stays unfactored if the pivot search throws below
  const std::size_t n = a.rows();
  lu_ = a;
  perm_.resize(n);
  perm_sign_ = 1;
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude in this column at or below the diagonal.
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(lu_(r, col)) > best) {
        best = std::abs(lu_(r, col));
        pivot = r;
      }
    }
    if (best < 1e-300) throw std::runtime_error("LuDecomposition: singular matrix");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(col, j), lu_(pivot, j));
      std::swap(perm_[col], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double inv = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = lu_(r, col) * inv;
      lu_(r, col) = f;
      if (f == 0.0) continue;
      for (std::size_t j = col + 1; j < n; ++j) lu_(r, j) -= f * lu_(col, j);
    }
  }
  n_ = n;
}

std::vector<double> LuDecomposition::solve(const std::vector<double>& b) const {
  std::vector<double> x;
  solve_into(b, x);
  return x;
}

void LuDecomposition::solve_into(const std::vector<double>& b,
                                 std::vector<double>& x) const {
  // Check factored state before the size check: on a never-factored or
  // failed decomposition n_ == 0, so an empty rhs would otherwise pass
  // the mismatch test and silently "solve" to an empty vector.
  if (!factored()) {
    throw std::logic_error(
        "LuDecomposition::solve: decomposition is not factored");
  }
  require(b.size() == n_, "LuDecomposition::solve: rhs size mismatch");
  require(&b != &x, "LuDecomposition::solve_into: aliased buffers");
  x.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n_; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
}

double LuDecomposition::determinant() const {
  // An unfactored decomposition has no diagonal, so the product below
  // would degenerate to perm_sign_ (±1) — a plausible-looking lie.
  if (!factored()) {
    throw std::logic_error(
        "LuDecomposition::determinant: decomposition is not factored");
  }
  double d = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) d *= lu_(i, i);
  return d;
}

std::vector<double> solve(const Matrix& a, const std::vector<double>& b) {
  return LuDecomposition(a).solve(b);
}

Matrix expm(const Matrix& a) {
  require(a.rows() == a.cols(), "expm: matrix must be square");
  const std::size_t n = a.rows();
  // Scale so the norm is <= 0.5, then a short Taylor series converges to
  // machine precision, then square back.
  const double nrm = a.inf_norm();
  int squarings = 0;
  double s = 1.0;
  while (nrm * s > 0.5) {
    s *= 0.5;
    ++squarings;
  }
  const Matrix b = a * s;
  Matrix result = Matrix::identity(n);
  Matrix term = Matrix::identity(n);
  for (int k = 1; k <= 24; ++k) {
    term = term * b * (1.0 / static_cast<double>(k));
    result = result + term;
    if (term.inf_norm() < 1e-18 * result.inf_norm()) break;
  }
  for (int i = 0; i < squarings; ++i) result = result * result;
  return result;
}

namespace {

// Householder reduction of a general real matrix to upper Hessenberg form.
void hessenberg(Matrix& a) {
  const std::size_t n = a.rows();
  if (n < 3) return;
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder vector for column k, rows k+1..n-1.
    double alpha = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) alpha += a(i, k) * a(i, k);
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) continue;
    if (a(k + 1, k) > 0.0) alpha = -alpha;
    std::vector<double> v(n, 0.0);
    v[k + 1] = a(k + 1, k) - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = a(i, k);
    double vnorm2 = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 == 0.0) continue;
    const double beta = 2.0 / vnorm2;
    // A <- (I - beta v v^T) A
    for (std::size_t j = 0; j < n; ++j) {
      double dot_vj = 0.0;
      for (std::size_t i = k + 1; i < n; ++i) dot_vj += v[i] * a(i, j);
      dot_vj *= beta;
      for (std::size_t i = k + 1; i < n; ++i) a(i, j) -= v[i] * dot_vj;
    }
    // A <- A (I - beta v v^T)
    for (std::size_t i = 0; i < n; ++i) {
      double dot_iv = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) dot_iv += a(i, j) * v[j];
      dot_iv *= beta;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= dot_iv * v[j];
    }
    a(k + 1, k) = alpha;
    for (std::size_t i = k + 2; i < n; ++i) a(i, k) = 0.0;
  }
}

// Shifted QR eigenvalue iteration on an upper Hessenberg matrix
// (Francis double-shift; adapted from the classic EISPACK "hqr" routine).
std::vector<std::complex<double>> hqr(Matrix& a) {
  const std::size_t size = a.rows();
  std::vector<std::complex<double>> w(size);
  if (size == 0) return w;

  auto n = static_cast<std::ptrdiff_t>(size);
  double anorm = 0.0;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(i - 1, 0); j < n; ++j) {
      anorm += std::abs(a(i, j));
    }
  }

  std::ptrdiff_t nn = n - 1;
  double t = 0.0;
  while (nn >= 0) {
    int its = 0;
    std::ptrdiff_t l = 0;
    do {
      for (l = nn; l >= 1; --l) {
        double s = std::abs(a(l - 1, l - 1)) + std::abs(a(l, l));
        if (s == 0.0) s = anorm;
        if (std::abs(a(l, l - 1)) + s == s) {
          a(l, l - 1) = 0.0;
          break;
        }
      }
      if (l < 0) l = 0;
      double x = a(nn, nn);
      if (l == nn) {
        w[nn] = {x + t, 0.0};
        --nn;
      } else {
        double y = a(nn - 1, nn - 1);
        double ww = a(nn, nn - 1) * a(nn - 1, nn);
        if (l == nn - 1) {
          const double p0 = 0.5 * (y - x);
          const double q0 = p0 * p0 + ww;
          double z = std::sqrt(std::abs(q0));
          x += t;
          if (q0 >= 0.0) {
            z = p0 + sign_of(z, p0);
            w[nn - 1] = {x + z, 0.0};
            w[nn] = w[nn - 1];
            if (z != 0.0) w[nn] = {x - ww / z, 0.0};
          } else {
            w[nn - 1] = {x + p0, z};
            w[nn] = std::conj(w[nn - 1]);
          }
          nn -= 2;
        } else {
          if (its == 60) throw std::runtime_error("eigenvalues: QR iteration failed to converge");
          if (its == 10 || its == 20 || its == 30 || its == 40 || its == 50) {
            t += x;
            for (std::ptrdiff_t i = 0; i <= nn; ++i) a(i, i) -= x;
            const double s = std::abs(a(nn, nn - 1)) + std::abs(a(nn - 1, nn - 2));
            y = x = 0.75 * s;
            ww = -0.4375 * s * s;
          }
          ++its;
          std::ptrdiff_t m = nn - 2;
          double p = 0.0, q = 0.0, r = 0.0, z = 0.0;
          for (; m >= l; --m) {
            z = a(m, m);
            const double rr = x - z;
            const double ss = y - z;
            p = (rr * ss - ww) / a(m + 1, m) + a(m, m + 1);
            q = a(m + 1, m + 1) - z - rr - ss;
            r = a(m + 2, m + 1);
            const double s = std::abs(p) + std::abs(q) + std::abs(r);
            p /= s;
            q /= s;
            r /= s;
            if (m == l) break;
            const double u = std::abs(a(m, m - 1)) * (std::abs(q) + std::abs(r));
            const double v = std::abs(p) * (std::abs(a(m - 1, m - 1)) + std::abs(z) +
                                            std::abs(a(m + 1, m + 1)));
            if (u + v == v) break;
          }
          if (m < l) m = l;
          for (std::ptrdiff_t i = m + 2; i <= nn; ++i) {
            a(i, i - 2) = 0.0;
            if (i != m + 2) a(i, i - 3) = 0.0;
          }
          for (std::ptrdiff_t k = m; k <= nn - 1; ++k) {
            if (k != m) {
              p = a(k, k - 1);
              q = a(k + 1, k - 1);
              r = 0.0;
              if (k != nn - 1) r = a(k + 2, k - 1);
              x = std::abs(p) + std::abs(q) + std::abs(r);
              if (x != 0.0) {
                p /= x;
                q /= x;
                r /= x;
              }
            }
            const double s = sign_of(std::sqrt(p * p + q * q + r * r), p);
            if (s == 0.0) continue;
            if (k == m) {
              if (l != m) a(k, k - 1) = -a(k, k - 1);
            } else {
              a(k, k - 1) = -s * x;
            }
            p += s;
            x = p / s;
            y = q / s;
            z = r / s;
            q /= p;
            r /= p;
            for (std::ptrdiff_t j = k; j <= nn; ++j) {
              double pp = a(k, j) + q * a(k + 1, j);
              if (k != nn - 1) {
                pp += r * a(k + 2, j);
                a(k + 2, j) -= pp * z;
              }
              a(k + 1, j) -= pp * y;
              a(k, j) -= pp * x;
            }
            const std::ptrdiff_t mmin = std::min(nn, k + 3);
            for (std::ptrdiff_t i = l; i <= mmin; ++i) {
              double pp = x * a(i, k) + y * a(i, k + 1);
              if (k != nn - 1) {
                pp += z * a(i, k + 2);
                a(i, k + 2) -= pp * r;
              }
              a(i, k + 1) -= pp * q;
              a(i, k) -= pp;
            }
          }
        }
      }
    } while (nn >= 0 && l < nn - 1);
  }
  return w;
}

}  // namespace

std::vector<std::complex<double>> eigenvalues(const Matrix& a) {
  require(a.rows() == a.cols(), "eigenvalues: matrix must be square");
  Matrix h = a;
  hessenberg(h);
  return hqr(h);
}

}  // namespace msbist::dsp
