// DC operating-point analysis and DC sweeps.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/rescue.h"
#include "circuit/solver.h"
#include "core/error.h"

namespace msbist::circuit {

/// Solved operating point: node voltages plus branch currents.
class DcResult {
 public:
  DcResult(std::vector<double> solution, const Netlist& netlist);

  /// Voltage at a named node (0 for ground).
  double voltage(const std::string& node_name) const;
  double voltage(NodeId node) const;

  const std::vector<double>& raw() const { return solution_; }

  /// How the ladder saved this point (empty when plain Newton sufficed).
  const RescueTrace& rescue() const { return rescue_; }
  void set_rescue(RescueTrace trace) { rescue_ = std::move(trace); }

 private:
  std::vector<double> solution_;
  const Netlist* netlist_;
  RescueTrace rescue_;
};

struct DcOptions {
  NewtonOptions newton;
  /// Run the ERC (analysis::enforce) before solving; Error-severity
  /// netlists are rejected with analysis::ErcError instead of reaching
  /// Newton-Raphson. Disable only when the caller already checked.
  bool erc = true;
  /// Convergence-rescue ladder bounds (circuit/rescue.h). rescue.enable =
  /// false restores the fail-fast pre-ladder behavior; when plain Newton
  /// fails, the source-stepping rung ramps the sources from 0 to full
  /// scale in rescue.max_source_steps increments.
  RescueOptions rescue;
};

/// Operating point at t = 0 (waveform sources evaluate at their t=0 value;
/// capacitors are open). Throws analysis::ErcError when the netlist fails
/// the electrical rule check, and the typed core::SolverError hierarchy
/// (analysis = "dc_operating_point") when no operating point is found even
/// after the full rescue ladder.
DcResult dc_operating_point(const Netlist& netlist, const DcOptions& opts = {});

/// One sweep point the solver could not rescue.
struct DcSweepPointFailure {
  std::size_t index = 0;     ///< position in the sweep vector
  double value = 0.0;        ///< the sweep value that failed
  core::Failure failure;
};

/// Sweep output. A point the ladder could not save is *recorded*, never
/// silently dropped: its probe voltage is NaN, its sweep value
/// and structured Failure land in `failures`, and the remaining points
/// still solve (re-seeded from the last good solution).
struct DcSweepResult {
  std::vector<double> sweep_values;  ///< the requested sweep values
  std::vector<double> values;        ///< probe voltage per point (NaN = failed)
  std::vector<DcSweepPointFailure> failures;
  RescueTrace rescue;

  bool complete() const { return failures.empty(); }
};

/// Sweep a parameterized DC analysis: `set_value` applies each sweep value
/// to the netlist (e.g. adjust a source), and the voltage at `probe` is
/// recorded. Each point reuses the previous solution as the Newton seed;
/// the solver caches are rebuilt per point, since `set_value` may mutate
/// any element in place.
/// Failed points are recorded in the result (see DcSweepResult); only the
/// ERC rejection and non-solver exceptions from `set_value` propagate.
DcSweepResult dc_sweep(Netlist& netlist, const std::vector<double>& values,
                       const std::function<void(Netlist&, double)>& set_value,
                       const std::string& probe, const DcOptions& opts = {});

}  // namespace msbist::circuit
