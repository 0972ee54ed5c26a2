// Shared Newton-Raphson MNA solver used by the DC and transient engines.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace msbist::circuit {

struct NewtonOptions {
  int max_iterations = 500;
  double vtol = 1e-9;      ///< absolute convergence tolerance [V]
  double reltol = 1e-6;    ///< relative convergence tolerance
  double gmin = 1e-12;     ///< leak conductance from every node to ground [S]
  double max_update = 0.5; ///< per-iteration voltage damping limit [V]
  int damping_retries = 3; ///< on failure retry with max_update / 4^k
};

class SolverWorkspace;

/// Human-readable name of MNA unknown `index`: the node name for node
/// rows, "I(<element>)" for branch-current rows. Used by the failure
/// taxonomy to name the worst-converging unknown in diagnostics.
std::string unknown_name(const Netlist& netlist, std::size_t index);

/// Solve the (possibly nonlinear) MNA system described by the netlist for
/// the analysis point in ctx. guess seeds the Newton iteration and must
/// have `unknowns` entries.
///
/// Hard failures throw the typed core::SolverError hierarchy
/// (core/error.h), never a bare std::runtime_error:
///   * core::NonConvergentError   — iteration budget exhausted
///     (progressively damped retries per damping_retries are attempted
///     first);
///   * core::NumericOverflowError — an iterate went NaN/Inf; the
///     divergence guard aborts on the first poisoned update instead of
///     burning the remaining budget;
///   * core::SingularMatrixError  — the assembled matrix cannot be
///     factored.
/// Each carries a core::Failure naming the worst-converging unknown and
/// the iteration count. Callers wanting automatic recovery use the
/// rescue ladder (circuit/rescue.h) layered above this function.
///
/// workspace carries the stamp cache, LU factorization cache, and scratch
/// buffers across calls (see workspace.h); the transient engine passes one
/// workspace for all steps of a run. A fresh workspace per call is correct
/// but without cross-call reuse; results are bit-identical either way.
std::vector<double> solve_mna(const Netlist& netlist, StampContext ctx,
                              std::size_t unknowns, std::vector<double> guess,
                              const NewtonOptions& opts, SolverWorkspace& workspace);

}  // namespace msbist::circuit
