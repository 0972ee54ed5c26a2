#include "dsp/sparse.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

namespace msbist::dsp {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

// Matches the dense engine's singularity threshold so the two backends
// agree on what counts as a failed factorization.
constexpr double kPivotFloor = 1e-300;

}  // namespace

// ---------------------------------------------------------------------------
// SparseMatrix

SparseMatrix SparseMatrix::from_triplets(
    std::size_t rows, std::size_t cols,
    const std::vector<std::tuple<int, int, double>>& triplets) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  auto t = triplets;
  for (const auto& [r, c, v] : t) {
    (void)v;
    require(r >= 0 && c >= 0 && static_cast<std::size_t>(r) < rows &&
                static_cast<std::size_t>(c) < cols,
            "SparseMatrix: triplet coordinate out of range");
  }
  // Stable sort keeps equal coordinates in insertion order, so duplicates
  // sum left-to-right as documented.
  std::stable_sort(t.begin(), t.end(),
                   [](const auto& a, const auto& b) {
                     return std::get<0>(a) != std::get<0>(b)
                                ? std::get<0>(a) < std::get<0>(b)
                                : std::get<1>(a) < std::get<1>(b);
                   });
  m.row_ptr_.assign(rows + 1, 0);
  for (std::size_t i = 0; i < t.size();) {
    const int r = std::get<0>(t[i]);
    const int c = std::get<1>(t[i]);
    double sum = 0.0;
    for (; i < t.size() && std::get<0>(t[i]) == r && std::get<1>(t[i]) == c;
         ++i) {
      sum += std::get<2>(t[i]);
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(sum);
    ++m.row_ptr_[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

SparseMatrix SparseMatrix::from_pattern(std::size_t rows, std::size_t cols,
                                        std::vector<std::pair<int, int>> coords) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  for (const auto& [r, c] : coords) {
    require(r >= 0 && c >= 0 && static_cast<std::size_t>(r) < rows &&
                static_cast<std::size_t>(c) < cols,
            "SparseMatrix: pattern coordinate out of range");
  }
  std::sort(coords.begin(), coords.end());
  coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(coords.size());
  for (const auto& [r, c] : coords) {
    m.col_idx_.push_back(c);
    ++m.row_ptr_[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.values_.assign(coords.size(), 0.0);
  return m;
}

std::size_t SparseMatrix::index_of(int r, int c) const {
  if (r < 0 || c < 0 || static_cast<std::size_t>(r) >= rows_ ||
      static_cast<std::size_t>(c) >= cols_) {
    return npos;
  }
  const auto begin = col_idx_.begin() + row_ptr_[r];
  const auto end = col_idx_.begin() + row_ptr_[r + 1];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return npos;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

double SparseMatrix::at(int r, int c) const {
  const std::size_t p = index_of(r, c);
  return p == npos ? 0.0 : values_[p];
}

double* SparseMatrix::find(int r, int c) {
  const std::size_t p = index_of(r, c);
  return p == npos ? nullptr : &values_[p];
}

std::vector<double> SparseMatrix::operator*(const std::vector<double>& v) const {
  require(v.size() == cols_, "SparseMatrix: size mismatch in matrix-vector product");
  std::vector<double> r(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (int p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      acc += values_[p] * v[static_cast<std::size_t>(col_idx_[p])];
    }
    r[i] = acc;
  }
  return r;
}

Matrix SparseMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (int p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      m(i, static_cast<std::size_t>(col_idx_[p])) = values_[p];
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// SparseLu — symbolic phase

void SparseLu::analyze(const SparseMatrix& a) {
  require(a.rows() == a.cols(), "SparseLu: matrix must be square");
  analyzed_ = false;
  factored_ = false;
  n_ = a.rows();
  pat_row_ptr_ = a.row_ptr();
  pat_col_idx_ = a.col_idx();
  const int n = static_cast<int>(n_);

  // CSC view of the pattern, with each slot mapped back to its CSR
  // values() index so numeric phases can read column-wise without
  // transposing values.
  csc_ptr_.assign(n_ + 1, 0);
  csc_rows_.assign(a.nnz(), 0);
  csc_val_.assign(a.nnz(), 0);
  for (int c : pat_col_idx_) ++csc_ptr_[static_cast<std::size_t>(c) + 1];
  for (int j = 0; j < n; ++j) csc_ptr_[j + 1] += csc_ptr_[j];
  {
    std::vector<int> next(csc_ptr_.begin(), csc_ptr_.end() - 1);
    for (int r = 0; r < n; ++r) {
      for (int p = pat_row_ptr_[r]; p < pat_row_ptr_[r + 1]; ++p) {
        const int j = pat_col_idx_[p];
        const int slot = next[j]++;
        csc_rows_[slot] = r;
        csc_val_[slot] = p;
      }
    }
  }

  // Minimum-degree elimination order on the symmetrized pattern A + A^T,
  // with a deterministic smallest-index tie-break. The quotient-graph
  // machinery of production AMD is unnecessary at MNA sizes; plain
  // clique-forming elimination is O(n * d^2) per step and produces the
  // same orders on the bus/array-shaped systems this library builds.
  std::vector<std::set<int>> adj(n_);
  for (int r = 0; r < n; ++r) {
    for (int p = pat_row_ptr_[r]; p < pat_row_ptr_[r + 1]; ++p) {
      const int c = pat_col_idx_[p];
      if (c == r) continue;
      adj[r].insert(c);
      adj[c].insert(r);
    }
  }
  q_.clear();
  q_.reserve(n_);
  std::vector<char> eliminated(n_, 0);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    std::size_t best_deg = 0;
    for (int i = 0; i < n; ++i) {
      if (eliminated[i]) continue;
      if (best < 0 || adj[i].size() < best_deg) {
        best = i;
        best_deg = adj[i].size();
      }
    }
    q_.push_back(best);
    eliminated[best] = 1;
    for (int u : adj[best]) adj[u].erase(best);
    for (auto it = adj[best].begin(); it != adj[best].end(); ++it) {
      auto jt = it;
      for (++jt; jt != adj[best].end(); ++jt) {
        adj[*it].insert(*jt);
        adj[*jt].insert(*it);
      }
    }
    adj[best].clear();
  }
  analyzed_ = true;
  ++stats_.analyses;
}

// ---------------------------------------------------------------------------
// SparseLu — numeric phases

void SparseLu::factor(const SparseMatrix& a) {
  if (!analyzed_ || pat_row_ptr_ != a.row_ptr() ||
      pat_col_idx_ != a.col_idx()) {
    analyze(a);
  }
  factor_ordered(a);
}

void SparseLu::factor_ordered(const SparseMatrix& a) {
  factored_ = false;
  ++stats_.factors;
  const int n = static_cast<int>(n_);
  const double* av = a.values();

  pinv_.assign(n_, -1);
  prow_.assign(n_, -1);
  lp_.assign(n_ + 1, 0);
  up_.assign(n_ + 1, 0);
  li_.clear();
  lx_.clear();
  ui_.clear();
  ux_.clear();
  ud_.assign(n_, 0.0);

  std::vector<double> x(n_, 0.0);
  std::vector<int> mark(n_, -1);
  std::vector<int> topo;                 // DFS postorder of the reach set
  std::vector<std::pair<int, int>> dfs;  // (row, next child slot in li_)

  for (int k = 0; k < n; ++k) {
    const int j = q_[k];

    // Symbolic step: rows reachable from the column pattern through the
    // finished L columns. Reverse postorder of this DFS is a dependency
    // order for the left-looking updates.
    topo.clear();
    for (int p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) {
      const int root = csc_rows_[p];
      if (mark[root] == k) continue;
      mark[root] = k;
      dfs.emplace_back(root, pinv_[root] >= 0 ? lp_[pinv_[root]] : 0);
      while (!dfs.empty()) {
        const int node = dfs.back().first;
        const int pcol = pinv_[node];
        const int cend = pcol >= 0 ? lp_[pcol + 1] : 0;
        int child = dfs.back().second;
        int next = -1;
        while (child < cend) {
          const int r = li_[child++];
          if (mark[r] != k) {
            next = r;
            break;
          }
        }
        dfs.back().second = child;
        if (next >= 0) {
          mark[next] = k;
          dfs.emplace_back(next, pinv_[next] >= 0 ? lp_[pinv_[next]] : 0);
        } else {
          topo.push_back(node);
          dfs.pop_back();
        }
      }
    }

    // Numeric step: scatter the column, then apply updates from already
    // pivoted rows in dependency order. The order U entries are stored
    // in doubles as the refactor() update schedule.
    for (int p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) {
      x[csc_rows_[p]] = av[csc_val_[p]];
    }
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const int i = *it;
      const int pcol = pinv_[i];
      if (pcol < 0) continue;
      const double xi = x[i];
      ui_.push_back(i);
      ux_.push_back(xi);
      for (int p = lp_[pcol]; p < lp_[pcol + 1]; ++p) x[li_[p]] -= lx_[p] * xi;
    }
    up_[k + 1] = static_cast<int>(ui_.size());

    // Row partial pivot among the unpivoted reach rows.
    int ipiv = -1;
    double best = 0.0;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const int i = *it;
      if (pinv_[i] >= 0) continue;
      const double m = std::abs(x[i]);
      if (ipiv < 0 || m > best) {
        ipiv = i;
        best = m;
      }
    }
    if (ipiv < 0 || best < kPivotFloor) {
      throw std::runtime_error("SparseLu: singular matrix");
    }
    pinv_[ipiv] = k;
    prow_[k] = ipiv;
    const double piv = x[ipiv];
    ud_[k] = piv;
    const double inv = 1.0 / piv;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const int i = *it;
      if (pinv_[i] >= 0) continue;
      li_.push_back(i);
      lx_.push_back(x[i] * inv);
    }
    lp_[k + 1] = static_cast<int>(li_.size());

    for (int i : topo) x[i] = 0.0;
  }
  factored_ = true;
}

void SparseLu::refactor(const SparseMatrix& a) {
  if (!factored_ || pat_row_ptr_ != a.row_ptr() ||
      pat_col_idx_ != a.col_idx()) {
    factor(a);
    return;
  }
  const int n = static_cast<int>(n_);
  const double* av = a.values();
  std::vector<double> x(n_, 0.0);
  for (int k = 0; k < n; ++k) {
    const int j = q_[k];
    for (int p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) {
      x[csc_rows_[p]] = av[csc_val_[p]];
    }
    // Replay the stored update schedule — same sources, same order as
    // factor(), so identical values reproduce the factorization bitwise.
    for (int p = up_[k]; p < up_[k + 1]; ++p) {
      const int i = ui_[p];
      const double xi = x[i];
      ux_[p] = xi;
      const int pcol = pinv_[i];
      for (int q2 = lp_[pcol]; q2 < lp_[pcol + 1]; ++q2) {
        x[li_[q2]] -= lx_[q2] * xi;
      }
    }
    const double piv = x[prow_[k]];
    if (!(std::abs(piv) >= kPivotFloor)) {
      // The reused pivot degenerated for these values; redo the pivot
      // search on the same column ordering.
      ++stats_.pivot_fallbacks;
      factor_ordered(a);
      return;
    }
    ud_[k] = piv;
    const double inv = 1.0 / piv;
    for (int p = lp_[k]; p < lp_[k + 1]; ++p) lx_[p] = x[li_[p]] * inv;
    // Restore the all-zero scatter invariant on every touched row.
    for (int p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) x[csc_rows_[p]] = 0.0;
    for (int p = up_[k]; p < up_[k + 1]; ++p) x[ui_[p]] = 0.0;
    x[prow_[k]] = 0.0;
    for (int p = lp_[k]; p < lp_[k + 1]; ++p) x[li_[p]] = 0.0;
  }
  ++stats_.refactors;
}

std::size_t SparseLu::lu_nnz() const {
  return factored_ ? li_.size() + ui_.size() + n_ : 0;
}

std::vector<double> SparseLu::solve(const std::vector<double>& b) const {
  std::vector<double> x;
  solve_into(b, x);
  return x;
}

void SparseLu::solve_into(const std::vector<double>& b,
                          std::vector<double>& x) const {
  if (!factored_) {
    throw std::logic_error("SparseLu::solve: decomposition is not factored");
  }
  require(b.size() == n_, "SparseLu::solve: rhs size mismatch");
  require(&b != &x, "SparseLu::solve_into: aliased buffers");
  solve_work_ = b;
  std::vector<double>& w = solve_work_;
  const int n = static_cast<int>(n_);
  // Forward substitution; w stays indexed by original row, so the slot
  // for pivot position k is w[prow_[k]].
  for (int k = 0; k < n; ++k) {
    const double xk = w[prow_[k]];
    if (xk != 0.0) {
      for (int p = lp_[k]; p < lp_[k + 1]; ++p) w[li_[p]] -= lx_[p] * xk;
    }
  }
  // Back substitution.
  for (int k = n; k-- > 0;) {
    const double val = w[prow_[k]] / ud_[k];
    w[prow_[k]] = val;
    if (val != 0.0) {
      for (int p = up_[k]; p < up_[k + 1]; ++p) w[ui_[p]] -= ux_[p] * val;
    }
  }
  // Undo the column permutation: pivot position k solved unknown q_[k].
  x.resize(n_);
  for (int k = 0; k < n; ++k) x[q_[k]] = w[prow_[k]];
}

// ---------------------------------------------------------------------------
// BatchSparseLu

void BatchSparseLu::bind(const SparseLu& scalar, std::size_t variants) {
  if (!scalar.factored()) {
    throw std::logic_error(
        "BatchSparseLu::bind: scalar decomposition must be factored");
  }
  require(variants > 0, "BatchSparseLu::bind: need at least one variant");
  scalar_ = &scalar;
  variants_ = variants;
  n_ = scalar.size();
  numeric_ready_ = false;
  lx_.assign(scalar.lx_.size() * variants, 0.0);
  ux_.assign(scalar.ux_.size() * variants, 0.0);
  ud_.assign(n_ * variants, 0.0);
  work_.assign(n_ * variants, 0.0);
  perm_scratch_.clear();
  needs_fallback_.assign(variants, 0);
  fallback_variants_.clear();
  fallback_lu_.assign(variants, SparseLu{});
  fallbacks_ = 0;
  // Pattern-shaped scratch for private fallback factorizations.
  std::vector<std::pair<int, int>> coords;
  coords.reserve(scalar.pat_col_idx_.size());
  for (std::size_t r = 0; r < n_; ++r) {
    for (int p = scalar.pat_row_ptr_[r]; p < scalar.pat_row_ptr_[r + 1]; ++p) {
      coords.emplace_back(static_cast<int>(r), scalar.pat_col_idx_[p]);
    }
  }
  scratch_a_ = SparseMatrix::from_pattern(n_, n_, std::move(coords));
}

void BatchSparseLu::refactor_batch(const double* a_soa) {
  if (scalar_ == nullptr) {
    throw std::logic_error("BatchSparseLu::refactor_batch: not bound");
  }
  const SparseLu& s = *scalar_;
  const std::size_t kV = variants_;
  const int n = static_cast<int>(n_);
  numeric_ready_ = false;
  std::fill(needs_fallback_.begin(), needs_fallback_.end(), 0);
  fallback_variants_.clear();
  fallbacks_ = 0;
  std::vector<double> inv(kV);

  auto lane = [kV](std::vector<double>& slab, std::size_t entry) {
    return slab.data() + entry * kV;
  };
  auto wipe = [&](int row) {
    double* w = lane(work_, static_cast<std::size_t>(row));
    std::fill(w, w + kV, 0.0);
  };

  for (int k = 0; k < n; ++k) {
    const int j = s.q_[k];
    for (int p = s.csc_ptr_[j]; p < s.csc_ptr_[j + 1]; ++p) {
      const double* src = a_soa + static_cast<std::size_t>(s.csc_val_[p]) * kV;
      double* dst = lane(work_, static_cast<std::size_t>(s.csc_rows_[p]));
      std::copy(src, src + kV, dst);
    }
    for (int p = s.up_[k]; p < s.up_[k + 1]; ++p) {
      const int i = s.ui_[p];
      const double* xi = lane(work_, static_cast<std::size_t>(i));
      std::copy(xi, xi + kV, lane(ux_, static_cast<std::size_t>(p)));
      const int pcol = s.pinv_[i];
      for (int q2 = s.lp_[pcol]; q2 < s.lp_[pcol + 1]; ++q2) {
        const double* lq = lane(lx_, static_cast<std::size_t>(q2));
        double* wr = lane(work_, static_cast<std::size_t>(s.li_[q2]));
        for (std::size_t v = 0; v < kV; ++v) wr[v] -= lq[v] * xi[v];
      }
    }
    const double* pivs = lane(work_, static_cast<std::size_t>(s.prow_[k]));
    double* udk = lane(ud_, static_cast<std::size_t>(k));
    for (std::size_t v = 0; v < kV; ++v) {
      double piv = pivs[v];
      if (!(std::abs(piv) >= kPivotFloor)) {
        if (!needs_fallback_[v]) {
          needs_fallback_[v] = 1;
          fallback_variants_.push_back(v);
        }
        // Placeholder keeps the lockstep loops finite; this lane's result
        // is discarded and recomputed by the private factorization below.
        piv = 1.0;
      }
      udk[v] = piv;
      inv[v] = 1.0 / piv;
    }
    for (int p = s.lp_[k]; p < s.lp_[k + 1]; ++p) {
      const double* wr = lane(work_, static_cast<std::size_t>(s.li_[p]));
      double* lxp = lane(lx_, static_cast<std::size_t>(p));
      for (std::size_t v = 0; v < kV; ++v) lxp[v] = wr[v] * inv[v];
    }
    for (int p = s.csc_ptr_[j]; p < s.csc_ptr_[j + 1]; ++p) {
      wipe(s.csc_rows_[p]);
    }
    for (int p = s.up_[k]; p < s.up_[k + 1]; ++p) wipe(s.ui_[p]);
    wipe(s.prow_[k]);
    for (int p = s.lp_[k]; p < s.lp_[k + 1]; ++p) wipe(s.li_[p]);
  }

  for (std::size_t v : fallback_variants_) {
    double* vals = scratch_a_.values();
    for (std::size_t p = 0; p < scratch_a_.nnz(); ++p) {
      vals[p] = a_soa[p * kV + v];
    }
    fallback_lu_[v].factor(scratch_a_);  // throws if genuinely singular
    ++fallbacks_;
  }
  numeric_ready_ = true;
}

void BatchSparseLu::solve_batch(double* x_soa) {
  if (scalar_ == nullptr || !numeric_ready_) {
    throw std::logic_error(
        "BatchSparseLu::solve_batch: no batch factorization available");
  }
  const SparseLu& s = *scalar_;
  const std::size_t kV = variants_;
  const int n = static_cast<int>(n_);

  // Snapshot the RHS lanes of fallback variants before the lockstep
  // loops overwrite them with placeholder arithmetic.
  std::vector<std::vector<double>> fb_rhs;
  fb_rhs.reserve(fallback_variants_.size());
  for (std::size_t v : fallback_variants_) {
    std::vector<double> b(n_);
    for (std::size_t r = 0; r < n_; ++r) b[r] = x_soa[r * kV + v];
    fb_rhs.push_back(std::move(b));
  }

  for (int k = 0; k < n; ++k) {
    const double* xk = x_soa + static_cast<std::size_t>(s.prow_[k]) * kV;
    for (int p = s.lp_[k]; p < s.lp_[k + 1]; ++p) {
      const double* lxp = lx_.data() + static_cast<std::size_t>(p) * kV;
      double* wr = x_soa + static_cast<std::size_t>(s.li_[p]) * kV;
      for (std::size_t v = 0; v < kV; ++v) wr[v] -= lxp[v] * xk[v];
    }
  }
  for (int k = n; k-- > 0;) {
    double* wp = x_soa + static_cast<std::size_t>(s.prow_[k]) * kV;
    const double* udk = ud_.data() + static_cast<std::size_t>(k) * kV;
    for (std::size_t v = 0; v < kV; ++v) wp[v] /= udk[v];
    for (int p = s.up_[k]; p < s.up_[k + 1]; ++p) {
      const double* uxp = ux_.data() + static_cast<std::size_t>(p) * kV;
      double* wr = x_soa + static_cast<std::size_t>(s.ui_[p]) * kV;
      for (std::size_t v = 0; v < kV; ++v) wr[v] -= uxp[v] * wp[v];
    }
  }
  // Undo the permutation: solution in row slot prow_[k] belongs to
  // unknown q_[k].
  perm_scratch_.resize(n_ * kV);
  for (int k = 0; k < n; ++k) {
    const double* src = x_soa + static_cast<std::size_t>(s.prow_[k]) * kV;
    double* dst =
        perm_scratch_.data() + static_cast<std::size_t>(s.q_[k]) * kV;
    std::copy(src, src + kV, dst);
  }
  std::copy(perm_scratch_.begin(), perm_scratch_.end(), x_soa);

  for (std::size_t fi = 0; fi < fallback_variants_.size(); ++fi) {
    const std::size_t v = fallback_variants_[fi];
    std::vector<double> xv;
    fallback_lu_[v].solve_into(fb_rhs[fi], xv);
    for (std::size_t r = 0; r < n_; ++r) x_soa[r * kV + v] = xv[r];
  }
}

}  // namespace msbist::dsp
