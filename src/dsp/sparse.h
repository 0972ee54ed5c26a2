// Compressed-sparse-row matrices and a symbolic/numeric-split sparse LU.
//
// This is the MNA solver's only elimination engine. On every circuit
// measured — the paper's switch-level macros (13-27 unknowns), linear RC
// chains of 6-50 unknowns, a 98-unknown macro array — it beats the dense
// LU of matrix.h, whose O(n^3) factorizations and O(n^2) substitutions
// touch every zero (DESIGN.md §13). The dense LU stays for AC sweeps and
// state-space models. The pieces:
//
//  * SparseMatrix — CSR storage with a *fixed pattern*: construction
//    chooses the nonzero set (triplets or an explicit coordinate
//    pattern), after which only values change. That mirrors how
//    the MNA workspace uses it: the stamp-discovery pass fixes the
//    pattern once per analysis, and every Newton iteration only rewrites
//    values ("pattern-preserving stamp updates").
//
//  * SparseLu — left-looking (Gilbert–Peierls) LU with row partial
//    pivoting, split KLU-style into three entry points:
//      - analyze():  fill-reducing column ordering (minimum degree on the
//                    symmetrized pattern). Pure symbolic; runs once per
//                    pattern.
//      - factor():   pivoting numeric factorization; discovers the L/U
//                    fill pattern and the pivot sequence via per-column
//                    depth-first reachability.
//      - refactor(): numeric-only refactorization that replays the stored
//                    pattern, update schedule, and pivot sequence with new
//                    values — the per-Newton-step fast path. Falls back to
//                    a fresh factor() when a reused pivot degenerates.
//
//  * BatchSparseLu — the lockstep Monte-Carlo kernel: N value-variants of
//    one factored pattern refactored and solved together, with every
//    inner loop running over a contiguous [entry][variant] SoA slab so
//    the compiler can vectorize across variants. Variants whose shared
//    pivot sequence degenerates numerically are detected and re-factored
//    individually (fresh pivoting) without disturbing the batch.
//
// Error contract (shared with the dense engine): querying or solving an
// unfactored decomposition is a hard std::logic_error — never a silently
// empty solution; a numerically singular matrix throws std::runtime_error
// from factor()/refactor() and leaves the decomposition unfactored.
#pragma once

#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

#include "dsp/matrix.h"

namespace msbist::dsp {

/// Square or rectangular CSR matrix with an immutable nonzero pattern.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from (row, col, value) triplets; duplicate coordinates are
  /// summed in triplet order.
  static SparseMatrix from_triplets(
      std::size_t rows, std::size_t cols,
      const std::vector<std::tuple<int, int, double>>& triplets);

  /// Build a zero-valued matrix holding exactly the given coordinate
  /// pattern (duplicates deduplicated).
  static SparseMatrix from_pattern(std::size_t rows, std::size_t cols,
                                   std::vector<std::pair<int, int>> coords);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_idx_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// CSR arrays: row_ptr() has rows()+1 entries; column indices are
  /// sorted within each row.
  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  double* values() { return values_.data(); }
  const double* values() const { return values_.data(); }

  /// Value at (r, c); 0 when the coordinate is not in the pattern.
  double at(int r, int c) const;
  /// Pointer to the stored value at (r, c); nullptr when absent. The
  /// pattern is fixed, so the pointer stays valid for the matrix
  /// lifetime.
  double* find(int r, int c);
  /// Storage index of (r, c) in values(), or npos when absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t index_of(int r, int c) const;

  std::vector<double> operator*(const std::vector<double>& v) const;
  Matrix to_dense() const;

  /// True when both matrices hold exactly the same nonzero pattern.
  bool same_pattern(const SparseMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && row_ptr_ == o.row_ptr_ &&
           col_idx_ == o.col_idx_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<int> row_ptr_{0};
  std::vector<int> col_idx_;
  std::vector<double> values_;
};

/// Observability counters for tests and benchmarks.
struct SparseLuStats {
  std::size_t analyses = 0;     ///< symbolic orderings computed
  std::size_t factors = 0;      ///< pivoting numeric factorizations
  std::size_t refactors = 0;    ///< pattern-replay refactorizations
  std::size_t pivot_fallbacks = 0;  ///< refactors escalated to factor()
};

class BatchSparseLu;

/// Sparse LU with a symbolic/numeric split (see file comment).
class SparseLu {
 public:
  SparseLu() = default;

  /// Symbolic phase: compute the fill-reducing column order for this
  /// pattern (minimum degree on the symmetrized pattern, deterministic
  /// smallest-index tie-break). Values are ignored. Implied by factor()
  /// when not already run for an identical pattern.
  void analyze(const SparseMatrix& a);
  bool analyzed() const { return analyzed_; }

  /// Numeric factorization with row partial pivoting. The matrix must be
  /// square and match the analyzed pattern (analyze() is rerun when it
  /// does not). Throws std::runtime_error on numerical singularity and
  /// leaves the decomposition unfactored.
  void factor(const SparseMatrix& a);

  /// Numeric-only refactorization: same pattern, new values, reusing the
  /// stored pivot sequence and update schedule — O(lu_nnz) with no
  /// searching. Escalates to a full factor(a) when the decomposition is
  /// unfactored or the pattern changed, and to a fresh pivot search when
  /// a reused pivot falls below the pivot floor (counted in
  /// stats().pivot_fallbacks).
  void refactor(const SparseMatrix& a);

  bool factored() const { return factored_; }
  std::size_t size() const { return n_; }
  /// Stored entries of L + U including the diagonal (fill-in measure).
  std::size_t lu_nnz() const;

  /// Solve A x = b. Hard std::logic_error when the decomposition is
  /// unfactored (never an empty solution).
  std::vector<double> solve(const std::vector<double>& b) const;
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  const SparseLuStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SparseLuStats{}; }

 private:
  friend class BatchSparseLu;

  void factor_ordered(const SparseMatrix& a);

  // --- symbolic state (valid while analyzed_) ---
  bool analyzed_ = false;
  std::size_t n_ = 0;
  std::vector<int> q_;          ///< column elimination order
  // Pattern the analysis (and CSC view) was computed for.
  std::vector<int> pat_row_ptr_;
  std::vector<int> pat_col_idx_;
  // CSC view of the analyzed pattern: column j holds rows csc_rows_
  // [csc_ptr_[j] .. csc_ptr_[j+1]); csc_val_ maps each CSC slot to the
  // matching CSR values() index.
  std::vector<int> csc_ptr_;
  std::vector<int> csc_rows_;
  std::vector<int> csc_val_;

  // --- numeric state (valid while factored_) ---
  bool factored_ = false;
  std::vector<int> pinv_;   ///< original row -> pivot position (-1 = none)
  std::vector<int> prow_;   ///< pivot position -> original row
  // L: column k holds strictly-below-pivot entries (original row ids,
  // unit diagonal implicit). U: column k holds above-pivot entries
  // (original row ids of earlier pivots) in dependency (topological)
  // order — that order doubles as the refactor update schedule — with
  // the pivot value split out into ud_.
  std::vector<int> lp_, li_;
  std::vector<double> lx_;
  std::vector<int> up_, ui_;
  std::vector<double> ux_;
  std::vector<double> ud_;

  // Substitution scratch. solve() is logically const but reuses this
  // buffer, so a single SparseLu must not be solved from two threads at
  // once (matches how the solver workspaces own their decompositions).
  mutable std::vector<double> solve_work_;

  SparseLuStats stats_;
};

/// Lockstep refactor/solve of N value-variants sharing one factored
/// SparseLu pattern and pivot sequence. Value slabs use an
/// entry-major/variant-inner SoA layout: slab[entry * N + variant], so
/// the per-entry inner loops run over contiguous memory and vectorize.
///
/// The scalar SparseLu handed to bind() must outlive the batch and stay
/// factored (its symbolic + pivot state is borrowed, not copied). A
/// variant whose shared pivot degenerates (|pivot| below the floor) is
/// automatically re-factored on its own with fresh pivoting; its solves
/// transparently route through that private factorization.
class BatchSparseLu {
 public:
  BatchSparseLu() = default;

  /// Attach to a factored scalar decomposition and allocate SoA slabs
  /// for `variants` value sets.
  void bind(const SparseLu& scalar, std::size_t variants);
  bool bound() const { return scalar_ != nullptr; }
  std::size_t variants() const { return variants_; }

  /// Refactor all variants from an entry-major SoA slab of matrix values
  /// (a_soa[p * variants + v] = value of pattern entry p in variant v,
  /// with p indexing the bound pattern's CSR values() order). Throws
  /// std::runtime_error if a variant is numerically singular even under
  /// its private fallback factorization.
  void refactor_batch(const double* a_soa);

  /// Solve in place for all variants: x_soa[row * variants + v] holds b
  /// on entry and the solution on return. Hard std::logic_error before a
  /// successful refactor_batch().
  void solve_batch(double* x_soa);

  /// Variants that needed a private pivoted factorization this
  /// refactor_batch (shared-pivot degeneracy).
  std::size_t fallback_count() const { return fallbacks_; }

 private:
  const SparseLu* scalar_ = nullptr;
  std::size_t variants_ = 0;
  std::size_t n_ = 0;
  bool numeric_ready_ = false;
  std::vector<double> lx_, ux_, ud_;  ///< SoA slabs, entry-major
  std::vector<double> work_;          ///< n * variants scatter workspace
  std::vector<double> perm_scratch_;  ///< solve-time permutation buffer
  SparseMatrix scratch_a_;            ///< pattern-shaped fallback input
  std::vector<char> needs_fallback_;
  std::vector<std::size_t> fallback_variants_;
  std::vector<SparseLu> fallback_lu_;
  std::size_t fallbacks_ = 0;
};

}  // namespace msbist::dsp
