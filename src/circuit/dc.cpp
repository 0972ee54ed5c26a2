#include "circuit/dc.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/runner.h"
#include "circuit/workspace.h"

namespace msbist::circuit {

DcResult::DcResult(std::vector<double> solution, const Netlist& netlist)
    : solution_(std::move(solution)), netlist_(&netlist) {}

double DcResult::voltage(const std::string& node_name) const {
  return voltage(netlist_->find_node(node_name));
}

double DcResult::voltage(NodeId node) const {
  if (node < 0) return 0.0;
  return solution_[static_cast<std::size_t>(node)];
}

DcResult dc_operating_point(const Netlist& netlist, const DcOptions& opts) {
  if (opts.erc) analysis::enforce(netlist, "dc_operating_point");
  // assign_unknowns is idempotent but non-const; the cast confines the
  // bookkeeping mutation (branch row indices) to this one spot.
  const std::size_t unknowns = const_cast<Netlist&>(netlist).assign_unknowns();
  StampContext ctx;
  ctx.mode = StampContext::Mode::kDc;
  ctx.t = 0.0;

  // Source scaling and gmin changes only touch the RHS / node diagonals,
  // so one workspace serves the direct attempt and every rescue rung.
  SolverWorkspace workspace;
  RescueTrace trace;
  try {
    DcResult result(
        solve_dc_with_rescue(netlist, ctx, unknowns,
                             std::vector<double>(unknowns, 0.0), opts.newton,
                             opts.rescue, workspace, trace),
        netlist);
    result.set_rescue(std::move(trace));
    return result;
  } catch (const core::SolverError& e) {
    core::Failure f = e.failure();
    f.analysis = "dc_operating_point";
    core::throw_failure(std::move(f));
  }
}

DcSweepResult dc_sweep(Netlist& netlist, const std::vector<double>& values,
                       const std::function<void(Netlist&, double)>& set_value,
                       const std::string& probe, const DcOptions& opts) {
  const std::size_t unknowns = netlist.assign_unknowns();
  const NodeId probe_node = netlist.find_node(probe);
  StampContext ctx;
  ctx.mode = StampContext::Mode::kDc;

  DcSweepResult result;
  result.sweep_values = values;
  result.values.reserve(values.size());
  std::vector<double> seed(unknowns, 0.0);
  bool have_seed = false;
  SolverWorkspace workspace;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    set_value(netlist, v);
    // The mutation is invisible to the workspace fingerprint, so the
    // caches are rebuilt per point.
    workspace.invalidate();
    try {
      if (!have_seed) {
        // First solvable point: full operating-point machinery.
        const DcResult op = dc_operating_point(netlist, opts);
        seed = op.raw();
        result.rescue.append(op.rescue());
        have_seed = true;
      } else {
        RescueTrace point_trace;
        seed = solve_dc_with_rescue(netlist, ctx, unknowns, seed, opts.newton,
                                    opts.rescue, workspace, point_trace);
        result.rescue.append(point_trace);
      }
    } catch (const core::SolverError& e) {
      // Record, don't drop: NaN marks the gap in the waveform, the
      // structured failure carries the why, and the next point re-seeds
      // from the last good solution (or retries the operating point).
      DcSweepPointFailure pf;
      pf.index = i;
      pf.value = v;
      pf.failure = e.failure();
      pf.failure.analysis = "dc_sweep";
      pf.failure.sweep_value = v;
      pf.failure.has_sweep_value = true;
      result.failures.push_back(std::move(pf));
      result.values.push_back(std::numeric_limits<double>::quiet_NaN());
      continue;
    }
    result.values.push_back(
        probe_node < 0 ? 0.0 : seed[static_cast<std::size_t>(probe_node)]);
  }
  return result;
}

}  // namespace msbist::circuit
