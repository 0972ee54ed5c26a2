#include "circuit/transient.h"

#include <cmath>
#include <stdexcept>

#include "analysis/runner.h"
#include "circuit/dc.h"
#include "circuit/workspace.h"

namespace msbist::circuit {

TransientResult::TransientResult(std::vector<double> time, std::vector<std::string> names,
                                 std::vector<std::vector<double>> voltages,
                                 std::vector<std::string> branch_names,
                                 std::vector<std::vector<double>> branch_currents)
    : time_(std::move(time)), names_(std::move(names)), voltages_(std::move(voltages)),
      branch_names_(std::move(branch_names)),
      branch_currents_(std::move(branch_currents)), zeros_(time_.size(), 0.0) {
  node_index_.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) node_index_.emplace(names_[i], i);
  branch_index_.reserve(branch_names_.size());
  for (std::size_t i = 0; i < branch_names_.size(); ++i) {
    branch_index_.emplace(branch_names_[i], i);
  }
}

const std::vector<double>& TransientResult::current(const std::string& element_name) const {
  const auto it = branch_index_.find(element_name);
  if (it == branch_index_.end()) {
    throw std::out_of_range("TransientResult: unknown branch element " + element_name);
  }
  return branch_currents_[it->second];
}

const std::vector<double>& TransientResult::voltage(const std::string& node_name) const {
  if (node_name == "0" || node_name == "gnd" || node_name == "GND") return zeros_;
  const auto it = node_index_.find(node_name);
  if (it == node_index_.end()) {
    throw std::out_of_range("TransientResult: unknown node " + node_name);
  }
  return voltages_[it->second];
}

TransientResult transient(Netlist& netlist, const TransientOptions& opts) {
  if (opts.dt <= 0) throw std::invalid_argument("transient: dt must be > 0");
  if (opts.t_stop <= opts.t_start) {
    throw std::invalid_argument("transient: t_stop must exceed t_start");
  }
  if (opts.erc) analysis::enforce(netlist, "transient");
  const std::size_t unknowns = netlist.assign_unknowns();
  const std::size_t nodes = netlist.node_count();

  // Initial state: operating point, or zeros + capacitor ICs.
  std::vector<double> state(unknowns, 0.0);
  if (!opts.use_initial_conditions) {
    DcOptions dc_opts;
    dc_opts.newton = opts.newton;
    dc_opts.erc = false;  // already enforced above
    state = dc_operating_point(netlist, dc_opts).raw();
  }
  for (auto& el : netlist.elements()) {
    el->transient_begin(state, opts.use_initial_conditions);
  }

  // One workspace for every step of this run: buffers, the static-stamp
  // base, and (for linear netlists) the LU factorization all persist
  // across the t_start -> t_stop march.
  SolverWorkspace workspace;
  workspace.set_caching(opts.solver_cache);

  StampContext init_ctx;
  init_ctx.mode = StampContext::Mode::kTransient;
  init_ctx.dt = opts.dt;
  init_ctx.method = opts.method;
  init_ctx.t = opts.t_start;
  if (opts.use_initial_conditions) {
    // Solve a consistent initial point so sample 0 reflects capacitor
    // initial conditions through the companion models (not accepted as a
    // step: element state stays at the declared ICs).
    state = solve_mna(netlist, init_ctx, unknowns, state, opts.newton, workspace);
  }

  const auto steps = static_cast<std::size_t>(
      std::llround((opts.t_stop - opts.t_start) / opts.dt));
  std::vector<double> time(steps + 1);
  std::vector<std::vector<double>> volts(nodes, std::vector<double>(steps + 1, 0.0));
  time[0] = opts.t_start;
  for (std::size_t n = 0; n < nodes; ++n) volts[n][0] = state[n];

  // Record branch currents for every named branch element (sources).
  std::vector<std::string> branch_names;
  std::vector<int> branch_rows;
  for (const auto& el : netlist.elements()) {
    if (el->branch_count() > 0 && !el->name().empty()) {
      branch_names.push_back(el->name());
      branch_rows.push_back(el->branch_base());
    }
  }
  std::vector<std::vector<double>> currents(branch_names.size(),
                                            std::vector<double>(steps + 1, 0.0));
  for (std::size_t b = 0; b < branch_rows.size(); ++b) {
    currents[b][0] = state[static_cast<std::size_t>(branch_rows[b])];
  }

  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = opts.dt;
  ctx.method = opts.method;

  // Only elements with history need the per-step accept callback.
  std::vector<Element*> stateful;
  for (auto& el : netlist.elements()) {
    if (el->has_transient_state()) stateful.push_back(el.get());
  }

  RescueTrace trace;
  for (std::size_t k = 1; k <= steps; ++k) {
    ctx.t = opts.t_start + static_cast<double>(k) * opts.dt;
    TransientStepResult step_result;
    try {
      step_result = solve_transient_step_with_rescue(netlist, ctx, unknowns,
                                                     state, opts.newton,
                                                     opts.rescue, workspace,
                                                     stateful, trace);
    } catch (const core::SolverError& e) {
      core::Failure f = e.failure();
      f.analysis = "transient";
      f.has_time = true;
      f.time_s = ctx.t;
      core::throw_failure(std::move(f));
    }
    state = std::move(step_result.state);
    // The dt-halving rung accepts element state per substep itself.
    if (!step_result.elements_advanced) {
      for (Element* el : stateful) el->transient_accept(state, ctx);
    }
    time[k] = ctx.t;
    for (std::size_t n = 0; n < nodes; ++n) volts[n][k] = state[n];
    for (std::size_t b = 0; b < branch_rows.size(); ++b) {
      currents[b][k] = state[static_cast<std::size_t>(branch_rows[b])];
    }
  }

  TransientResult result(std::move(time),
                         std::vector<std::string>(netlist.node_names()),
                         std::move(volts), std::move(branch_names),
                         std::move(currents));
  result.set_rescue(std::move(trace));
  return result;
}

}  // namespace msbist::circuit
