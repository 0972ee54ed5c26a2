// Convergence-rescue ladder: deterministic recovery from hard solver
// failures, invoked by the DC and transient engines before they give up.
//
// The ladder's rungs, in order (each bounded by RescueOptions):
//
//   1. Progressive damping — already inside solve_mna (damping_retries);
//      the ladder starts where damping left off.
//   2. gmin stepping — solve with the node-to-ground leak raised to
//      gmin_start (1e-3 S), then ramp it down a decade at a time, seeding
//      each solve with the previous solution, until the caller's gmin is
//      reached. The *final* accepted solution is always at exactly the
//      caller's gmin, so a rescued result solves the same system a
//      never-failing run would — elevated gmin only steers the Newton
//      path. Also the cure for singular node diagonals (the leak
//      regularizes them long enough for the seed to form).
//   3. Source stepping (DC only) — ramp every independent source from
//      zero via StampContext::source_scale, reusing each converged point
//      to seed the next (the classic homotopy).
//   4. Local timestep halving (transient only) — re-solve the failing
//      step as 2^k substeps of dt/2^k, accepting element state after each
//      substep, then resume at the full dt ("automatic re-doubling").
//      Element state is checkpointed first and rolled back if a substep
//      fails, so a failed attempt leaves no trace.
//
// Every attempt (failed or successful) is recorded in a RescueTrace that
// analyses attach to their results, so a caller can see *how* a point
// was saved. The ladder is strictly deterministic: a fixed attempt
// sequence with fixed parameters, no timing, no randomness — two runs of
// the same netlist produce identical traces and identical solutions.
// Netlists that never fail never enter the ladder, so their results are
// bit-identical to a build without it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/solver.h"
#include "core/error.h"

namespace msbist::circuit {

class SolverWorkspace;

struct RescueOptions {
  /// Master switch: off means failures propagate immediately (the
  /// pre-ladder behavior; bit-identity A/B checks use this).
  bool enable = true;
  /// gmin-stepping decade ramp: first attempt at gmin_start, then /10
  /// per step until the caller's NewtonOptions::gmin is reached. Bounds
  /// the number of ramp solves (not counting the final exact-gmin one).
  int max_gmin_steps = 8;
  double gmin_start = 1e-3;
  /// Source-stepping homotopy points (DC ladder only).
  int max_source_steps = 20;
  /// Maximum timestep-halving depth (transient ladder only): attempt k
  /// re-solves the step as 2^k substeps of dt / 2^k.
  int max_dt_halvings = 4;
};

/// One rung attempt. `parameter` is rung-specific: the gmin reached, the
/// source scale, or the substep dt.
struct RescueAttempt {
  enum class Stage : std::uint8_t {
    kDirect = 0,     ///< the plain damped-Newton attempt that failed
    kGminStep = 1,
    kSourceStep = 2,
    kDtHalving = 3,
  };
  Stage stage = Stage::kDirect;
  double parameter = 0.0;
  bool succeeded = false;
  core::ErrorCode code = core::ErrorCode::kNone;  ///< failure code when !succeeded
  double time_s = 0.0;   ///< transient time of the rescued point (0 for DC)
  std::string detail;
};

const char* to_string(RescueAttempt::Stage stage);

/// The attempts made while rescuing one analysis (possibly several
/// points of a sweep or several steps of a transient). Empty for runs
/// that never needed rescue.
struct RescueTrace {
  std::vector<RescueAttempt> attempts;
  std::size_t rescued_points = 0;  ///< analysis points saved by the ladder

  bool used() const { return !attempts.empty(); }
  void append(const RescueTrace& other);
};

/// DC ladder: direct damped Newton, then gmin stepping, then source
/// stepping. Returns the solution at the caller's exact gmin and
/// source_scale = 1. Throws the *last* rung's core::SolverError when
/// every rung is exhausted (with the rescue trail in the detail).
std::vector<double> solve_dc_with_rescue(const Netlist& netlist, StampContext ctx,
                                         std::size_t unknowns,
                                         std::vector<double> guess,
                                         const NewtonOptions& newton,
                                         const RescueOptions& rescue,
                                         SolverWorkspace& workspace,
                                         RescueTrace& trace);

/// Result of rescuing one transient step.
struct TransientStepResult {
  std::vector<double> state;  ///< MNA solution at the end of the step
  /// True when the ladder advanced element state itself (the dt-halving
  /// rung accepts each substep); the caller must then skip its own
  /// transient_accept for this step.
  bool elements_advanced = false;
};

/// Transient-step ladder: direct damped Newton at the step's dt, then
/// gmin stepping at that dt, then timestep halving with per-substep
/// element accepts. `state_prev` is the accepted solution at ctx.t -
/// ctx.dt; `stateful` are the elements needing transient_accept (the
/// engine's precomputed list). Element state is checkpointed before any
/// substep march and rolled back on failure. Throws the last rung's
/// core::SolverError when exhausted.
TransientStepResult solve_transient_step_with_rescue(
    const Netlist& netlist, StampContext ctx, std::size_t unknowns,
    const std::vector<double>& state_prev, const NewtonOptions& newton,
    const RescueOptions& rescue, SolverWorkspace& workspace,
    const std::vector<Element*>& stateful, RescueTrace& trace);

}  // namespace msbist::circuit
