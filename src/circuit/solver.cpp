#include "circuit/solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/workspace.h"
#include "core/error.h"

namespace msbist::circuit {

namespace {

core::Failure make_failure(core::ErrorCode code, const Netlist& netlist,
                           int iterations, std::size_t worst_index,
                           double worst_update, std::string detail) {
  core::Failure f;
  f.code = code;
  f.analysis = "solve_mna";
  f.iterations = iterations;
  f.worst_node = unknown_name(netlist, worst_index);
  f.worst_update = worst_update;
  f.detail = std::move(detail);
  return f;
}

std::vector<double> solve_mna_once(const Netlist& netlist, StampContext ctx,
                                   std::size_t unknowns, std::vector<double> guess,
                                   const NewtonOptions& opts, SolverWorkspace& ws) {
  if (guess.size() != unknowns) guess.assign(unknowns, 0.0);
  ws.bind(netlist, ctx, unknowns, opts);
  const bool nonlinear = ws.nonlinear();
  const int iterations = nonlinear ? opts.max_iterations : 1;

  // Convergence bookkeeping for diagnostics: the unknown whose update was
  // largest in the last iteration, and how far it still moved.
  std::size_t worst_index = 0;
  double worst_delta = 0.0;

  for (int it = 0; it < iterations; ++it) {
    ctx.guess = &guess;
    const std::vector<double>* x = nullptr;
    try {
      x = &ws.solve_iteration(ctx);
    } catch (const core::SolverError&) {
      throw;  // already classified
    } catch (const std::runtime_error& e) {
      // The only runtime_error dsp::SparseLu emits is the singular-matrix
      // pivot failure; classify it. Misuse errors are std::logic_error
      // and propagate unclassified — a programming error is not a
      // singular circuit. it+1 counts the attempt that died.
      throw core::SingularMatrixError(make_failure(
          core::ErrorCode::kSingularMatrix, netlist, it + 1, 0, 0.0, e.what()));
    }

    if (!nonlinear) {
      // Copy into the guess buffer (same size, no allocation) and move it
      // out — the workspace keeps ownership of its solution scratch.
      // A non-finite entry means the (linear) system blew up — e.g. a
      // near-cancelled pivot amplified the RHS past double range.
      for (std::size_t i = 0; i < unknowns; ++i) {
        if (!std::isfinite((*x)[i])) {
          throw core::NumericOverflowError(
              make_failure(core::ErrorCode::kNumericOverflow, netlist, 1, i,
                           std::abs((*x)[i]), "linear solve produced NaN/Inf"));
        }
      }
      guess = *x;
      return guess;
    }

    // Damped update; converged when every unknown moved less than
    // vtol + reltol * |value|. A non-finite candidate aborts immediately:
    // once an iterate is poisoned every later iteration stays poisoned,
    // so burning the remaining budget only wastes time.
    bool converged = true;
    worst_delta = 0.0;
    worst_index = 0;
    for (std::size_t i = 0; i < unknowns; ++i) {
      if (!std::isfinite((*x)[i])) {
        throw core::NumericOverflowError(make_failure(
            core::ErrorCode::kNumericOverflow, netlist, it + 1, i,
            std::abs((*x)[i]), "Newton iterate went NaN/Inf"));
      }
      const double delta =
          std::clamp((*x)[i] - guess[i], -opts.max_update, opts.max_update);
      const double next = guess[i] + delta;
      if (std::abs(delta) > opts.vtol + opts.reltol * std::abs(next)) {
        converged = false;
      }
      if (std::abs(delta) > worst_delta) {
        worst_delta = std::abs(delta);
        worst_index = i;
      }
      guess[i] = next;
    }
    if (converged) return guess;
  }
  throw core::NonConvergentError(
      make_failure(core::ErrorCode::kNonConvergent, netlist, iterations,
                   worst_index, worst_delta,
                   "Newton iteration did not converge"));
}

}  // namespace

std::string unknown_name(const Netlist& netlist, std::size_t index) {
  if (index < netlist.node_count()) return netlist.node_names()[index];
  for (const auto& el : netlist.elements()) {
    const int base = el->branch_base();
    if (el->branch_count() > 0 && base >= 0 &&
        index >= static_cast<std::size_t>(base) &&
        index < static_cast<std::size_t>(base + el->branch_count())) {
      return "I(" + (el->name().empty() ? "?" : el->name()) + ")";
    }
  }
  return "unknown#" + std::to_string(index);
}

std::vector<double> solve_mna(const Netlist& netlist, StampContext ctx,
                              std::size_t unknowns, std::vector<double> guess,
                              const NewtonOptions& opts, SolverWorkspace& ws) {
  // High-gain loops can make the full-step Newton iteration orbit instead
  // of converge; progressively heavier damping is the standard cure.
  // Damping cannot cure a singular matrix, so that code propagates at
  // once — the rescue ladder's gmin stepping is the right tool there.
  NewtonOptions damped = opts;
  for (int attempt = 0;; ++attempt) {
    try {
      return solve_mna_once(netlist, ctx, unknowns, guess, damped, ws);
    } catch (const core::SolverError& e) {
      if (e.code() == core::ErrorCode::kSingularMatrix) throw;
      if (attempt >= opts.damping_retries) throw;
      damped.max_update /= 4.0;
    }
  }
}

}  // namespace msbist::circuit
