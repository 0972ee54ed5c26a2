// SolverWorkspace: the reuse engine behind the MNA hot path.
//
// The pre-workspace solver rebuilt a dense MNA matrix and ran a full
// partial-pivot LU on every Newton iteration of every time step. Almost
// all of that work is redundant on the circuits this library simulates:
// resistor G-stamps, voltage-source branch rows, and fixed-dt capacitor
// companion conductances never change during an analysis, and for a fully
// linear netlist the whole matrix is constant — only the RHS moves.
//
// The workspace exploits that in three layers, while keeping the
// assembled system BIT-IDENTICAL to a from-scratch rebuild:
//
//  1. Buffer reuse — matrix, RHS, and solution vectors are allocated once
//     and recycled across iterations, steps, and (if the caller keeps the
//     workspace) whole analyses.
//
//  2. Stamp caching — a one-time discovery pass records every element's
//     matrix-write footprint. An entry is *static* when only
//     time_invariant_stamp() elements write it, *dynamic* otherwise.
//     Static entries (plus their gmin) are accumulated once into a base
//     matrix; each iteration restores the base with one bulk copy and
//     re-stamps elements through a keep-mask that drops static writes.
//     Because each matrix entry still receives exactly the same
//     contributions in the same element order (the mask drops writes, it
//     never reorders them), the assembled matrix matches the naive build
//     bit for bit — same elimination, same pivoting, same waveforms.
//
//  3. LU factorization reuse — every solve factors through dsp::SparseLu
//     over the nonzero pattern the discovery pass found, replaying its
//     symbolic analysis and pivot order. When no element writes a dynamic
//     entry (fully linear netlist at fixed dt), the matrix is constant
//     for the whole analysis: factor once, then only forward/back-
//     substitute per step.
//
// Invalidation: a workspace re-binds (rebuilds classification, base, and
// factorization) whenever the analysis fingerprint changes — netlist
// identity, unknown/node/element counts, analysis mode, dt, integration
// method, gmin, or the caching policy. Fault injection adds elements, so
// an injected netlist re-binds automatically. In-place *parameter*
// mutation of an existing element (e.g. Resistor::set_resistance between
// two analyses run against one long-lived workspace) is invisible to the
// fingerprint: call invalidate() after such mutations. The analyses in
// dc.cpp/transient.cpp construct or re-bind workspaces per run, so normal
// callers never face stale caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/solver.h"
#include "dsp/matrix.h"
#include "dsp/sparse.h"

namespace msbist::circuit {

/// Observability counters for tests and benchmarks.
struct SolverStats {
  std::size_t binds = 0;              ///< classification + base rebuilds
  std::size_t assemblies = 0;         ///< per-iteration system assemblies
  std::size_t lu_factorizations = 0;  ///< pivoting numeric factorizations
  std::size_t lu_reuses = 0;          ///< solves served by a cached factorization
  std::size_t sparse_refactors = 0;   ///< sparse pattern-replay refactorizations
};

/// The sparse pattern an MNA system factors over: every stamp coordinate
/// plus the gmin diagonal of each node, and each entry's row-major offset
/// in the dense assembly matrix, so a densely assembled system gathers
/// into it. SolverWorkspace and BatchTransient both build theirs with
/// mna_pattern(): lockstep lane 0 is bitwise equal to circuit::transient
/// only while the two patterns are the same.
struct MnaPattern {
  dsp::SparseMatrix matrix;
  std::vector<std::size_t> dense;  ///< row-major dense offset of entry p
};

/// The pattern of an unknowns x unknowns system whose first `nodes`
/// unknowns are node voltages, from the (possibly repeated) coordinates
/// the elements' stamps write.
MnaPattern mna_pattern(std::vector<std::pair<int, int>> coords,
                       std::size_t unknowns, std::size_t nodes);

class SolverWorkspace {
 public:
  SolverWorkspace() = default;

  /// Disable (or re-enable) every cache: with caching off all entries are
  /// treated as dynamic and the factorization is never reused, so each
  /// iteration performs the full from-scratch stamp + LU — the reference
  /// path the bit-identity tests and benches compare against. Buffers are
  /// still recycled. Toggling changes the fingerprint (forces a re-bind).
  void set_caching(bool enabled) { caching_ = enabled; }
  bool caching() const { return caching_; }

  /// Bind to one analysis of one netlist. Rebuilds the entry
  /// classification, base matrix, and (lazily) the LU cache when the
  /// fingerprint differs from the previous bind; a matching fingerprint
  /// is a no-op, which is what makes per-step reuse work.
  void bind(const Netlist& netlist, const StampContext& ctx, std::size_t unknowns,
            const NewtonOptions& opts);

  /// Drop every cached product. The next bind() rebuilds from scratch;
  /// call after mutating element parameters in place.
  void invalidate() { bound_ = false; }

  /// Assemble and solve the MNA system for one Newton iteration at ctx
  /// (bind() must have been called for this analysis). Returns the
  /// solution by reference; valid until the next call.
  const std::vector<double>& solve_iteration(const StampContext& ctx);

  /// True when any element's stamp depends on the Newton iterate.
  bool nonlinear() const { return nonlinear_; }

  /// True when the bound analysis has a constant matrix (LU reuse active).
  bool matrix_fully_static() const { return bound_ && dynamic_entries_ == 0; }

  const SolverStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SolverStats{}; }

 private:
  struct Fingerprint {
    std::uint64_t netlist_uid = 0;
    std::size_t unknowns = 0;
    std::size_t nodes = 0;
    std::size_t elements = 0;
    StampContext::Mode mode = StampContext::Mode::kDc;
    double dt = 0.0;
    Integration method = Integration::kTrapezoidal;
    double gmin = 0.0;
    bool caching = true;

    bool operator==(const Fingerprint&) const = default;
  };

  void rebuild(const Netlist& netlist, const StampContext& ctx);
  void gather_into_pattern(const dsp::Matrix& src);

  bool caching_ = true;
  bool bound_ = false;
  Fingerprint fp_;

  // Classification (valid while bound_): keep-masks are row-major bytes
  // over the unknowns x unknowns matrix. dynamic_keep_ is handed to the
  // per-iteration Stamper; static_keep_ (its complement) gates the base
  // build; static entries are served from base_.
  std::vector<unsigned char> dynamic_keep_;
  std::vector<unsigned char> static_keep_;
  std::vector<std::size_t> dynamic_diagonals_;  ///< node rows needing gmin per iteration
  std::size_t dynamic_entries_ = 0;
  bool nonlinear_ = false;
  // Elements with at least one dynamic matrix write or any RHS write must
  // be stamped every iteration; purely-static, RHS-free elements (e.g.
  // resistors away from any nonlinear device) are skipped entirely.
  std::vector<const Element*> iteration_elements_;

  dsp::Matrix base_;  ///< static stamps + gmin on static node diagonals
  dsp::Matrix g_;
  std::vector<double> rhs_;
  std::vector<double> x_;
  bool lu_valid_ = false;

  // Elimination (valid while bound_): assembly runs through the dense
  // g_/base_ machinery above — that is what keeps the assembled system
  // bit-identical to the reference build — and the nonzero values are
  // then gathered into pattern_.matrix (through pattern_.dense) for
  // factorization by sparse_lu_. The SparseLu keeps its symbolic
  // analysis and pivot sequence across re-binds whose pattern is
  // unchanged (the rescue ladder's gmin steps), so only numeric
  // refactorization remains per Newton iteration.
  MnaPattern pattern_;
  dsp::SparseLu sparse_lu_;

  SolverStats stats_;
};

}  // namespace msbist::circuit
