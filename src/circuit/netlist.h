// Netlist representation and the MNA stamping interface.
//
// A Netlist is a bag of circuit elements connected at named nodes. Analyses
// (dc.h, transient.h) assemble the modified-nodal-analysis system by asking
// every element to stamp its (linearized) companion model into a Stamper.
// The design mirrors a conventional SPICE core at a small scale: node
// voltages plus one branch current per voltage-source-like element.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsp/matrix.h"

namespace msbist::circuit {

/// Node index; kGround (-1) is the reference node and is never stamped.
using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Transient integration method.
enum class Integration { kBackwardEuler, kTrapezoidal };

/// Everything an element needs to know to stamp itself for one Newton
/// iteration of one analysis point.
struct StampContext {
  enum class Mode { kDc, kTransient };
  Mode mode = Mode::kDc;
  double t = 0.0;                     ///< time at the end of the step
  double dt = 0.0;                    ///< step size (transient only)
  Integration method = Integration::kTrapezoidal;
  double source_scale = 1.0;          ///< source stepping homotopy factor
  const std::vector<double>* guess = nullptr;  ///< current Newton iterate
};

/// Write adapter over the MNA matrix and right-hand side. Node index
/// kGround is silently dropped, which keeps element stamping code free of
/// ground special cases.
///
/// Two optional hooks serve the SolverWorkspace stamp cache (workspace.h):
///  * a keep-mask (row-major, one byte per matrix entry) drops matrix
///    writes to entries whose byte is zero — the workspace restores those
///    from its cached base instead of re-accumulating them;
///  * write logs record the coordinates of every attempted matrix and RHS
///    write, which is how the workspace discovers each element's stamp
///    footprint. RHS writes are never masked (the RHS is rebuilt every
///    iteration).
/// Both hooks default to off, so plain `Stamper(g, rhs)` behaves exactly
/// as before.
class Stamper {
 public:
  Stamper(dsp::Matrix& g, std::vector<double>& rhs) : g_(g), rhs_(rhs) {}
  Stamper(dsp::Matrix& g, std::vector<double>& rhs, const unsigned char* keep_mask)
      : g_(g), rhs_(rhs), keep_(keep_mask) {}
  /// RHS-only mode: every matrix write is dropped without consulting a
  /// mask (the constant-matrix fast path of the solver workspace).
  struct RhsOnly {};
  Stamper(dsp::Matrix& g, std::vector<double>& rhs, RhsOnly)
      : g_(g), rhs_(rhs), drop_matrix_(true) {}

  /// Record every matrix / RHS write's coordinates (discovery mode).
  void set_write_log(std::vector<std::pair<int, int>>* matrix_log,
                     std::vector<int>* rhs_log) {
    log_ = matrix_log;
    rhs_log_ = rhs_log;
  }

  /// Conductance g between nodes a and b (classic 4-point stamp).
  void conductance(NodeId a, NodeId b, double g) {
    if (a >= 0) add(a, a, g);
    if (b >= 0) add(b, b, g);
    if (a >= 0 && b >= 0) {
      add(a, b, -g);
      add(b, a, -g);
    }
  }

  /// Current source driving i from node a through the element to node b
  /// (SPICE convention: positive current leaves a and enters b).
  void current(NodeId a, NodeId b, double i) {
    if (a >= 0) add_rhs(a, -i);
    if (b >= 0) add_rhs(b, i);
  }

  /// Raw matrix entry (row/col may be branch rows); both must be >= 0.
  void add(int row, int col, double v) {
    if (log_) log_->emplace_back(row, col);
    if (drop_matrix_) return;
    const std::size_t r = static_cast<std::size_t>(row);
    const std::size_t c = static_cast<std::size_t>(col);
    if (keep_ && !keep_[r * g_.cols() + c]) return;
    g_(r, c) += v;
  }

  /// Raw RHS entry.
  void add_rhs(int row, double v) {
    if (rhs_log_) rhs_log_->push_back(row);
    rhs_[static_cast<std::size_t>(row)] += v;
  }

  /// Value of the current Newton iterate at a node (0 for ground).
  static double voltage(const StampContext& ctx, NodeId n) {
    if (n < 0) return 0.0;
    if (ctx.guess == nullptr) return 0.0;
    return (*ctx.guess)[static_cast<std::size_t>(n)];
  }

 private:
  dsp::Matrix& g_;
  std::vector<double>& rhs_;
  const unsigned char* keep_ = nullptr;
  bool drop_matrix_ = false;
  std::vector<std::pair<int, int>>* log_ = nullptr;
  std::vector<int>* rhs_log_ = nullptr;
};

/// Base class for all circuit elements.
class Element {
 public:
  virtual ~Element() = default;

  /// Stamp the element's (linearized) companion model.
  virtual void stamp(Stamper& s, const StampContext& ctx) const = 0;

  /// Nodes this element touches, in a fixed per-element order (terminal 0
  /// first). Ground appears as kGround. Drives the static-analysis (ERC)
  /// connectivity model in analysis/; every element must describe itself.
  virtual std::vector<NodeId> terminals() const = 0;

  /// Pairs of indices into terminals() between which the element conducts
  /// at DC (finite resistance or a voltage-source constraint). Capacitors,
  /// current sources and sense-only control pins provide none.
  virtual std::vector<std::pair<int, int>> dc_paths() const { return {}; }

  /// True when the stamp depends on the Newton iterate.
  virtual bool nonlinear() const { return false; }

  /// True when the element's *matrix* stamp is invariant across every
  /// Newton iteration and time step of a fixed-dt analysis: the G-stamps
  /// of resistors and controlled sources, the +/-1 branch rows of voltage
  /// sources, and the fixed-dt companion conductance of capacitors. RHS
  /// contributions may still vary freely (source waveforms, companion
  /// history currents). The solver workspace stamps such elements into a
  /// cached base matrix once per analysis instead of once per iteration.
  ///
  /// Contract for every element, invariant or not: within one analysis
  /// (fixed StampContext::mode, dt, and method) the *set* of matrix and
  /// RHS entries written by stamp() must not depend on t or the Newton
  /// iterate (values may; coordinates may not), so a one-time discovery
  /// pass sees the full footprint. All elements in this library satisfy
  /// this by construction (their writes are guarded only by node indices).
  virtual bool time_invariant_stamp() const { return false; }

  /// Value slots: the element values a lockstep population varies die by
  /// die (see set_values below). Elements without slots keep the value
  /// they were built with.
  virtual std::size_t value_count() const { return 0; }
  /// Overwrite the element's slots from values[0 .. value_count()).
  virtual void set_values(const double* /*values*/) {}

  /// Number of extra MNA branch-current rows this element needs.
  virtual int branch_count() const { return 0; }

  /// Called by the engine with the element's first branch row index
  /// (node_count .. node_count+branches-1 range in the MNA vector).
  void set_branch_base(int base) { branch_base_ = base; }
  int branch_base() const { return branch_base_; }

  /// Transient bookkeeping: called once after the operating point with the
  /// full MNA solution, then after each accepted step.
  virtual void transient_begin(const std::vector<double>& /*solution*/,
                               bool /*use_initial_conditions*/) {}
  virtual void transient_accept(const std::vector<double>& /*solution*/,
                                const StampContext& /*ctx*/) {}
  /// True when transient_accept is non-trivial (the element carries
  /// history, e.g. a capacitor). Lets the transient engine skip the
  /// per-step virtual dispatch for stateless elements.
  virtual bool has_transient_state() const { return false; }
  /// Snapshot / restore the transient history, used by the rescue
  /// ladder's timestep-halving rung: a failed substep march must leave
  /// element state exactly as it was at the start of the full step.
  /// Elements with has_transient_state() must implement both.
  virtual void transient_checkpoint() {}
  virtual void transient_rollback() {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

 private:
  int branch_base_ = -1;
  std::string name_;
};

/// A circuit: named nodes plus owned elements.
class Netlist {
 public:
  Netlist();

  /// Process-unique identity, assigned at construction. Distinguishes a
  /// netlist from a different one later constructed at the same address
  /// (solver workspaces key their caches on it).
  std::uint64_t uid() const { return uid_; }

  /// Index for a node name, creating it on first use. "0", "gnd" and
  /// "GND" all map to the ground reference.
  NodeId node(const std::string& name);

  /// Look up an existing node; throws std::out_of_range if absent.
  NodeId find_node(const std::string& name) const;

  /// Add an element (optionally named for later lookup). Returns a
  /// non-owning pointer usable to query branch currents after analysis.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto el = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = el.get();
    elements_.push_back(std::move(el));
    return raw;
  }

  /// Attach a name to the most recently added element.
  void name_last(const std::string& n);

  /// Element lookup by name; nullptr when absent.
  Element* find(const std::string& n) const;

  std::size_t node_count() const { return names_.size(); }
  const std::vector<std::string>& node_names() const { return names_; }
  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }
  std::vector<std::unique_ptr<Element>>& elements() { return elements_; }

  /// Total MNA unknowns: nodes + branch rows. Assigns branch bases.
  std::size_t assign_unknowns();

 private:
  std::uint64_t uid_;
  std::unordered_map<std::string, NodeId> index_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Element>> elements_;
};

/// Total value slots of a netlist: the length of its value row.
std::size_t value_count(const Netlist& netlist);

/// Write a value row into a netlist: each element's slots in turn, in
/// element order. Throws std::invalid_argument, before writing any
/// element, when the row's length is not value_count(netlist) or any
/// entry is not finite (a NaN would slip past the elements' own range
/// checks).
void set_values(Netlist& netlist, std::span<const double> row);

}  // namespace msbist::circuit
