#include "circuit/rescue.h"

#include <algorithm>
#include <utility>

#include "circuit/workspace.h"

namespace msbist::circuit {

namespace {

/// Re-throw a failure with its matching derived type so callers can keep
/// catching NonConvergentError & co. after a rescue enriched the payload.
[[noreturn]] void throw_typed(core::Failure f) {
  switch (f.code) {
    case core::ErrorCode::kSingularMatrix:
      throw core::SingularMatrixError(std::move(f));
    case core::ErrorCode::kNumericOverflow:
      throw core::NumericOverflowError(std::move(f));
    default:
      throw core::NonConvergentError(std::move(f));
  }
}

RescueAttempt make_attempt(RescueAttempt::Stage stage, double parameter,
                           double time_s) {
  RescueAttempt a;
  a.stage = stage;
  a.parameter = parameter;
  a.time_s = time_s;
  return a;
}

std::string trail_summary(const RescueTrace& trace) {
  std::string out = "rescue ladder exhausted:";
  for (const RescueAttempt& a : trace.attempts) {
    out += ' ';
    out += to_string(a.stage);
    out += a.succeeded ? "(ok)" : "(fail)";
  }
  return out;
}

/// The gmin-stepping rung: solve at rescue.gmin_start, ramp down a decade
/// per step seeding each solve with the previous solution, and finish
/// with a solve at exactly newton.gmin. Appends one trace attempt; on
/// success `solution` holds the exact-gmin answer.
bool gmin_ramp(const Netlist& netlist, const StampContext& ctx,
               std::size_t unknowns, const std::vector<double>& initial_seed,
               const NewtonOptions& newton, const RescueOptions& rescue,
               SolverWorkspace& workspace, double time_s,
               std::vector<double>& solution, RescueTrace& trace,
               core::Failure& last_failure) {
  RescueAttempt attempt =
      make_attempt(RescueAttempt::Stage::kGminStep, rescue.gmin_start, time_s);
  NewtonOptions elevated = newton;
  double g = std::max(rescue.gmin_start, newton.gmin);
  std::vector<double> seed = initial_seed;
  int steps = 0;
  for (;;) {
    elevated.gmin = g;
    attempt.parameter = g;
    try {
      seed = solve_mna(netlist, ctx, unknowns, std::move(seed), elevated,
                       workspace);
    } catch (const core::SolverError& e) {
      attempt.code = e.code();
      attempt.detail = "failed at gmin " + std::to_string(g);
      trace.attempts.push_back(std::move(attempt));
      last_failure = e.failure();
      return false;
    }
    if (g <= newton.gmin) {
      attempt.succeeded = true;
      attempt.detail = std::to_string(steps) + " ramp steps";
      trace.attempts.push_back(std::move(attempt));
      solution = std::move(seed);
      return true;
    }
    ++steps;
    // Last budgeted step jumps straight to the caller's exact gmin so a
    // bounded ramp still ends on the true system.
    g = steps >= rescue.max_gmin_steps ? newton.gmin
                                       : std::max(g / 10.0, newton.gmin);
  }
}

}  // namespace

const char* to_string(RescueAttempt::Stage stage) {
  switch (stage) {
    case RescueAttempt::Stage::kDirect: return "direct";
    case RescueAttempt::Stage::kGminStep: return "gmin_step";
    case RescueAttempt::Stage::kSourceStep: return "source_step";
    case RescueAttempt::Stage::kDtHalving: return "dt_halving";
  }
  return "?";
}

void RescueTrace::append(const RescueTrace& other) {
  attempts.insert(attempts.end(), other.attempts.begin(), other.attempts.end());
  rescued_points += other.rescued_points;
}

std::vector<double> solve_dc_with_rescue(const Netlist& netlist, StampContext ctx,
                                         std::size_t unknowns,
                                         std::vector<double> guess,
                                         const NewtonOptions& newton,
                                         const RescueOptions& rescue,
                                         SolverWorkspace& workspace,
                                         RescueTrace& trace) {
  if (!rescue.enable) {
    return solve_mna(netlist, ctx, unknowns, std::move(guess), newton,
                     workspace);
  }

  core::Failure last_failure;
  try {
    return solve_mna(netlist, ctx, unknowns, std::move(guess), newton,
                     workspace);
  } catch (const core::SolverError& e) {
    if (!core::retryable(e.code())) throw;
    RescueAttempt direct = make_attempt(RescueAttempt::Stage::kDirect,
                                        newton.max_update, /*time_s=*/0.0);
    direct.code = e.code();
    direct.detail = e.what();
    trace.attempts.push_back(std::move(direct));
    last_failure = e.failure();
  }

  // Rung 2: gmin stepping (cold seed — the failed guess is worthless).
  std::vector<double> solution;
  if (gmin_ramp(netlist, ctx, unknowns, std::vector<double>(unknowns, 0.0),
                newton, rescue, workspace, /*time_s=*/0.0, solution, trace,
                last_failure)) {
    ++trace.rescued_points;
    return solution;
  }

  // Rung 3: source-stepping homotopy, each converged point seeding the
  // next. The final point is the full-scale system.
  RescueAttempt source =
      make_attempt(RescueAttempt::Stage::kSourceStep, 0.0, /*time_s=*/0.0);
  std::vector<double> seed(unknowns, 0.0);
  const int steps = std::max(1, rescue.max_source_steps);
  try {
    for (int step = 1; step <= steps; ++step) {
      ctx.source_scale = static_cast<double>(step) / static_cast<double>(steps);
      source.parameter = ctx.source_scale;
      seed = solve_mna(netlist, ctx, unknowns, std::move(seed), newton,
                       workspace);
    }
    source.succeeded = true;
    trace.attempts.push_back(std::move(source));
    ++trace.rescued_points;
    return seed;
  } catch (const core::SolverError& e) {
    source.code = e.code();
    source.detail =
        "failed at source scale " + std::to_string(source.parameter);
    trace.attempts.push_back(std::move(source));
    last_failure = e.failure();
  }

  last_failure.detail += "; " + trail_summary(trace);
  throw_typed(std::move(last_failure));
}

TransientStepResult solve_transient_step_with_rescue(
    const Netlist& netlist, StampContext ctx, std::size_t unknowns,
    const std::vector<double>& state_prev, const NewtonOptions& newton,
    const RescueOptions& rescue, SolverWorkspace& workspace,
    const std::vector<Element*>& stateful, RescueTrace& trace) {
  TransientStepResult result;
  if (!rescue.enable) {
    result.state =
        solve_mna(netlist, ctx, unknowns, state_prev, newton, workspace);
    return result;
  }

  core::Failure last_failure;
  try {
    result.state =
        solve_mna(netlist, ctx, unknowns, state_prev, newton, workspace);
    return result;
  } catch (const core::SolverError& e) {
    if (!core::retryable(e.code())) throw;
    RescueAttempt direct =
        make_attempt(RescueAttempt::Stage::kDirect, newton.max_update, ctx.t);
    direct.code = e.code();
    direct.detail = e.what();
    trace.attempts.push_back(std::move(direct));
    last_failure = e.failure();
  }

  // Rung 2: gmin stepping at this step's dt, seeded from the previous
  // accepted state.
  if (gmin_ramp(netlist, ctx, unknowns, state_prev, newton, rescue, workspace,
                ctx.t, result.state, trace, last_failure)) {
    ++trace.rescued_points;
    return result;
  }

  // Rung 3: local timestep halving. Attempt k re-solves [t - dt, t] as
  // 2^k substeps of dt / 2^k, accepting element state per substep; a
  // failed attempt rolls every stateful element back to the checkpoint,
  // so deeper attempts (and the caller on total failure) start clean.
  const double t_begin = ctx.t - ctx.dt;
  for (int k = 1; k <= rescue.max_dt_halvings; ++k) {
    const int substeps = 1 << k;
    const double sub_dt = ctx.dt / static_cast<double>(substeps);
    RescueAttempt attempt =
        make_attempt(RescueAttempt::Stage::kDtHalving, sub_dt, ctx.t);
    for (Element* el : stateful) el->transient_checkpoint();
    StampContext sub = ctx;
    sub.dt = sub_dt;
    std::vector<double> state = state_prev;
    bool ok = true;
    for (int i = 1; i <= substeps; ++i) {
      sub.t = t_begin + static_cast<double>(i) * sub_dt;
      try {
        state = solve_mna(netlist, sub, unknowns, std::move(state), newton,
                          workspace);
      } catch (const core::SolverError& e) {
        attempt.code = e.code();
        attempt.detail = "failed at substep " + std::to_string(i) + "/" +
                         std::to_string(substeps);
        last_failure = e.failure();
        ok = false;
        break;
      }
      for (Element* el : stateful) el->transient_accept(state, sub);
    }
    if (ok) {
      attempt.succeeded = true;
      attempt.detail = std::to_string(substeps) + " substeps";
      trace.attempts.push_back(std::move(attempt));
      ++trace.rescued_points;
      result.state = std::move(state);
      result.elements_advanced = true;
      return result;
    }
    trace.attempts.push_back(std::move(attempt));
    for (Element* el : stateful) el->transient_rollback();
  }

  last_failure.has_time = true;
  last_failure.time_s = ctx.t;
  last_failure.detail += "; " + trail_summary(trace);
  throw_typed(std::move(last_failure));
}

}  // namespace msbist::circuit
