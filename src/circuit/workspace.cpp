#include "circuit/workspace.h"

#include <algorithm>
#include <cstring>

namespace msbist::circuit {

MnaPattern mna_pattern(std::vector<std::pair<int, int>> coords,
                       std::size_t unknowns, std::size_t nodes) {
  for (std::size_t node = 0; node < nodes; ++node) {
    coords.emplace_back(static_cast<int>(node), static_cast<int>(node));
  }
  MnaPattern pattern;
  pattern.matrix =
      dsp::SparseMatrix::from_pattern(unknowns, unknowns, std::move(coords));
  pattern.dense.resize(pattern.matrix.nnz());
  std::size_t p = 0;
  for (std::size_t r = 0; r < unknowns; ++r) {
    for (int q = pattern.matrix.row_ptr()[r]; q < pattern.matrix.row_ptr()[r + 1];
         ++q, ++p) {
      pattern.dense[p] =
          r * unknowns + static_cast<std::size_t>(pattern.matrix.col_idx()[q]);
    }
  }
  return pattern;
}

void SolverWorkspace::bind(const Netlist& netlist, const StampContext& ctx,
                           std::size_t unknowns, const NewtonOptions& opts) {
  Fingerprint fp;
  fp.netlist_uid = netlist.uid();
  fp.unknowns = unknowns;
  fp.nodes = netlist.node_count();
  fp.elements = netlist.elements().size();
  fp.mode = ctx.mode;
  fp.dt = ctx.dt;
  fp.method = ctx.method;
  fp.gmin = opts.gmin;
  fp.caching = caching_;
  if (bound_ && fp == fp_) return;
  fp_ = fp;
  rebuild(netlist, ctx);
  bound_ = true;
}

void SolverWorkspace::rebuild(const Netlist& netlist, const StampContext& ctx) {
  ++stats_.binds;
  lu_valid_ = false;
  const std::size_t n = fp_.unknowns;
  if (g_.rows() != n || g_.cols() != n) {
    g_ = dsp::Matrix(n, n);
    base_ = dsp::Matrix(n, n);
  } else {
    base_.set_zero();
  }
  rhs_.assign(n, 0.0);
  iteration_elements_.clear();
  dynamic_diagonals_.clear();

  // Both paths below collect every possible nonzero coordinate (all
  // element matrix writes) and hand them to mna_pattern, which adds the
  // gmin node diagonals. SparseLu::refactor compares patterns itself, so
  // an unchanged pattern across re-binds (e.g. the rescue ladder stepping
  // gmin) keeps the symbolic analysis and pivot order.

  if (!caching_) {
    // Reference path: everything is dynamic, every element stamps every
    // iteration, the base stays zero — the from-scratch build.
    dynamic_keep_.clear();
    static_keep_.clear();
    dynamic_entries_ = n * n;
    nonlinear_ = false;
    for (const auto& el : netlist.elements()) {
      if (el->nonlinear()) nonlinear_ = true;
      iteration_elements_.push_back(el.get());
    }
    for (std::size_t node = 0; node < fp_.nodes; ++node) {
      dynamic_diagonals_.push_back(node);
    }
    // The caching path harvests the pattern from its discovery pass;
    // here a dedicated write-log pass collects it.
    StampContext discovery = ctx;
    discovery.guess = nullptr;
    std::vector<std::pair<int, int>> coords;
    std::vector<std::pair<int, int>> matrix_log;
    std::vector<int> rhs_log;
    for (const auto& el : netlist.elements()) {
      matrix_log.clear();
      rhs_log.clear();
      Stamper s(g_, rhs_);
      s.set_write_log(&matrix_log, &rhs_log);
      el->stamp(s, discovery);
      coords.insert(coords.end(), matrix_log.begin(), matrix_log.end());
    }
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    pattern_ = mna_pattern(std::move(coords), n, fp_.nodes);
    return;
  }

  dynamic_keep_.assign(n * n, 0);
  static_keep_.assign(n * n, 0);

  // Discovery: stamp each element once (into scratch storage, values
  // discarded) to log its matrix/RHS footprint, and mark every entry
  // written by a matrix-variant element as dynamic. The iterate is absent
  // (guess == nullptr), which Stamper::voltage treats as all-zeros; by the
  // Element contract the footprint does not depend on the values.
  StampContext discovery = ctx;
  discovery.guess = nullptr;
  struct Footprint {
    std::vector<std::pair<int, int>> writes;
    bool writes_rhs = false;
  };
  std::vector<Footprint> footprints(netlist.elements().size());
  std::vector<std::pair<int, int>> sparse_coords;
  nonlinear_ = false;
  {
    std::vector<std::pair<int, int>> matrix_log;
    std::vector<int> rhs_log;
    for (std::size_t i = 0; i < netlist.elements().size(); ++i) {
      const Element* el = netlist.elements()[i].get();
      if (el->nonlinear()) nonlinear_ = true;
      matrix_log.clear();
      rhs_log.clear();
      Stamper s(g_, rhs_);
      s.set_write_log(&matrix_log, &rhs_log);
      el->stamp(s, discovery);
      footprints[i].writes = matrix_log;
      footprints[i].writes_rhs = !rhs_log.empty();
      sparse_coords.insert(sparse_coords.end(), matrix_log.begin(),
                           matrix_log.end());
      if (!el->time_invariant_stamp()) {
        for (const auto& [r, c] : matrix_log) {
          dynamic_keep_[static_cast<std::size_t>(r) * n +
                        static_cast<std::size_t>(c)] = 1;
        }
      }
    }
  }
  dynamic_entries_ = static_cast<std::size_t>(
      std::count(dynamic_keep_.begin(), dynamic_keep_.end(), 1));
  for (std::size_t i = 0; i < n * n; ++i) static_keep_[i] = !dynamic_keep_[i];
  for (std::size_t node = 0; node < fp_.nodes; ++node) {
    if (dynamic_keep_[node * n + node]) dynamic_diagonals_.push_back(node);
  }

  // An element re-stamps every iteration iff it owns a dynamic matrix
  // write (its contribution cannot live in the base) or any RHS write
  // (the RHS is rebuilt every iteration). Purely-static, RHS-free
  // elements are fully represented by the base and are skipped.
  for (std::size_t i = 0; i < netlist.elements().size(); ++i) {
    const Element* el = netlist.elements()[i].get();
    const bool dynamic_write = std::any_of(
        footprints[i].writes.begin(), footprints[i].writes.end(),
        [&](const std::pair<int, int>& w) {
          return dynamic_keep_[static_cast<std::size_t>(w.first) * n +
                               static_cast<std::size_t>(w.second)] != 0;
        });
    if (dynamic_write || footprints[i].writes_rhs) {
      iteration_elements_.push_back(el);
    }
  }

  // Base: time-invariant stamps masked to static entries, then gmin on
  // the static node diagonals. Per static entry this reproduces the
  // from-scratch accumulation order exactly (its only writers are the
  // time-invariant elements, visited in netlist order, then gmin).
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  Stamper base_stamper(base_, rhs_, static_keep_.data());
  for (const auto& el : netlist.elements()) {
    if (el->time_invariant_stamp()) el->stamp(base_stamper, discovery);
  }
  for (std::size_t node = 0; node < fp_.nodes; ++node) {
    if (!dynamic_keep_[node * n + node]) base_(node, node) += fp_.gmin;
  }

  pattern_ = mna_pattern(std::move(sparse_coords), n, fp_.nodes);
}

void SolverWorkspace::gather_into_pattern(const dsp::Matrix& src) {
  const double* d = src.data();
  double* v = pattern_.matrix.values();
  for (std::size_t p = 0; p < pattern_.dense.size(); ++p) v[p] = d[pattern_.dense[p]];
}

const std::vector<double>& SolverWorkspace::solve_iteration(const StampContext& ctx) {
  ++stats_.assemblies;
  std::fill(rhs_.begin(), rhs_.end(), 0.0);

  if (caching_ && dynamic_entries_ == 0) {
    // Constant matrix: stamp for the RHS only, reuse the factorization.
    // (RhsOnly drops matrix writes up front; the dynamic keep-mask is
    // all-zero here, so the two are equivalent — this just skips the
    // per-write mask lookup.)
    Stamper s(g_, rhs_, Stamper::RhsOnly{});
    for (const Element* el : iteration_elements_) el->stamp(s, ctx);
    if (!lu_valid_) {
      gather_into_pattern(base_);
      sparse_lu_.factor(pattern_.matrix);
      lu_valid_ = true;
      ++stats_.lu_factorizations;
    } else {
      ++stats_.lu_reuses;
    }
    sparse_lu_.solve_into(rhs_, x_);
    return x_;
  }

  // Dynamic matrix: restore the static base with one bulk copy, then
  // re-stamp only the elements owning dynamic or RHS writes. The keep
  // mask drops their static-entry writes (already in the base) without
  // reordering the surviving ones, so every entry accumulates the same
  // contributions in the same order as a from-scratch build.
  std::memcpy(g_.data(), base_.data(), base_.element_count() * sizeof(double));
  Stamper s(g_, rhs_, caching_ ? dynamic_keep_.data() : nullptr);
  for (const Element* el : iteration_elements_) el->stamp(s, ctx);
  for (std::size_t node : dynamic_diagonals_) g_(node, node) += fp_.gmin;
  lu_valid_ = false;  // factored from a per-iteration matrix, not the base
  ++stats_.lu_factorizations;
  // Gather the nonzeros and refactor. The first iteration after a pattern
  // change runs a full pivoting factor(); later iterations replay the
  // stored pivot sequence and update schedule (counted in
  // sparse_refactors).
  gather_into_pattern(g_);
  const std::size_t replays = sparse_lu_.stats().refactors;
  sparse_lu_.refactor(pattern_.matrix);
  stats_.sparse_refactors += sparse_lu_.stats().refactors - replays;
  sparse_lu_.solve_into(rhs_, x_);
  return x_;
}

}  // namespace msbist::circuit
