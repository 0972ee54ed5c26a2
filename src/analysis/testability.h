// Static testability analysis: the analog analogue of SCOAP.
//
// Digital SCOAP assigns every net a controllability and an observability
// number from gate structure alone; the analog counterpart here scores
// every node of a Netlist by conduction-weighted shortest-path distance
//
//   controllability — from the stimulus sources (how hard is it to move
//                     this node from the tester's drive points), and
//   observability   — to the declared BIST observation taps (how hard is
//                     it for a perturbation at this node to reach a
//                     DcLevelSensor or declared observation tap).
//
// Distances run over a SignalGraph: a directed, impedance-weighted
// influence graph derived from the Topology. Conduction edges (resistors,
// switches, MOS channels) propagate both ways with a cost that grows with
// the log of the element's impedance; capacitors couple at the cost of
// their impedance at the BIST stimulus frequency (100 kHz, the band of the
// paper's PRBS bit rate); dependent sources, MOS gates and voltage-switch
// controls add *directed* control arcs (sense pin -> driven terminal:
// influence flows forward through a gain stage but not backwards through
// its current output). Ideal voltage sources pin their nodes: supply
// vertices never relay a signal (a rail is an ideal sink), though a
// Dijkstra seed placed on one may fan out (that is exactly how stimulus
// enters the circuit).
//
// Scores are 1 / (1 + cost) in (0, 1], or 0 when unreachable, so "adding
// a tap never lowers any node's observability" holds by construction
// (more Dijkstra seeds can only shorten distances). Supply-pinned nodes
// score 1 by convention: their level is fixed by construction, so they
// are trivially controllable and their state is already known.
//
// The scored `testability` Pass supersedes the old binary
// bist-observability check (same Warning on unobservable nodes, but the
// report now carries the full score map), and the `test-point` Pass
// answers the paper's "where to put on-chip test access" question: a
// greedy ranking of candidate tap nodes by marginal observability gain.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "analysis/pass.h"
#include "core/outcome.h"

namespace msbist::analysis {

/// Vertices pinned to a fixed potential by chains of independent voltage
/// sources starting at ground (the ground vertex itself included).
std::vector<bool> supply_pinned_vertices(const Topology& topo);

/// Resolve node names to topology vertices. Unknown names are skipped
/// and appended to *unknown when given.
std::vector<std::size_t> resolve_vertices(const Topology& topo,
                                          const std::vector<std::string>& names,
                                          std::vector<std::string>* unknown = nullptr);

/// The directed, impedance-weighted influence graph of a Topology.
/// Shared by the testability scorer and the fault-universe collapser.
class SignalGraph {
 public:
  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

  explicit SignalGraph(const Topology& topo);

  const Topology& topology() const { return *topo_; }

  /// True for supply-pinned vertices (see supply_pinned_vertices).
  bool is_rail(std::size_t v) const { return rail_[v]; }
  const std::vector<bool>& rails() const { return rail_; }

  /// Multi-source Dijkstra. Forward (reverse = false): cheapest cost for
  /// a signal injected at any seed to reach each vertex. Reverse: cheapest
  /// cost for each vertex's state to reach any seed — the observability
  /// direction. Rail vertices never relay unless they are seeds.
  std::vector<double> distances(const std::vector<std::size_t>& seeds,
                                bool reverse) const;

  /// Vertices whose state can influence at least one of `taps` (finite
  /// reverse distance). Rail vertices are excluded: an ideal source pins
  /// them, so nothing injected there propagates.
  std::vector<bool> can_influence(const std::vector<std::size_t>& taps) const;

 private:
  struct Arc {
    std::size_t to = 0;
    double cost = 0.0;
  };

  void add_arc(std::size_t from, std::size_t to, double cost);
  void add_undirected(std::size_t a, std::size_t b, double cost);

  const Topology* topo_;
  std::vector<bool> rail_;
  std::vector<std::vector<Arc>> fwd_, rev_;
};

struct TestabilityOptions {
  /// Declared BIST observation taps (DcLevelSensor inputs, ramp
  /// comparator nodes).
  std::vector<std::string> taps;
  /// Greedy test-point suggestions to compute (0 disables).
  std::size_t max_suggestions = 3;
};

/// Score card of one node.
struct NodeTestability {
  std::string node;
  double controllability = 0.0;  ///< 1/(1+cost) from stimuli; 0 = unreachable
  double observability = 0.0;    ///< 1/(1+cost) to the nearest tap
  double control_cost = SignalGraph::kUnreachable;
  double observe_cost = SignalGraph::kUnreachable;
  bool rail = false;       ///< supply-pinned (scores 1 by convention)
  bool tap = false;        ///< declared observation tap
  bool connected = false;  ///< attached to at least one element terminal
};

/// One greedy test-point recommendation: add a tap at `node`.
struct TestPointSuggestion {
  std::string node;
  /// Sum of per-node observability score gains this tap would add, given
  /// the taps already declared plus every earlier suggestion.
  double gain = 0.0;
  /// Nodes that move from unobservable to observable.
  std::size_t newly_observable = 0;
};

struct TestabilityReport {
  std::vector<NodeTestability> nodes;  ///< netlist node order
  std::vector<std::string> taps;       ///< resolved taps
  std::vector<std::string> unknown_taps;
  /// Stimulus drive nodes: every non-ground terminal of an independent
  /// source (supplies included — they are drive points, if inflexible
  /// ones).
  std::vector<std::string> stimuli;
  std::size_t unobservable = 0;    ///< connected, non-rail, score 0
  std::size_t uncontrollable = 0;  ///< connected, non-rail, score 0
  double mean_controllability = 0.0;  ///< over connected non-rail nodes
  double mean_observability = 0.0;
  std::vector<TestPointSuggestion> suggestions;

  const NodeTestability* find(const std::string& node) const;

  /// Unified report API: pass means every declared tap resolved and every
  /// connected non-rail node is observable.
  core::Outcome outcome() const;
  void to_json(core::JsonWriter& w) const;
};

TestabilityReport analyze_testability(const Topology& topo,
                                      const TestabilityOptions& opts);
TestabilityReport analyze_testability(const circuit::Netlist& netlist,
                                      const TestabilityOptions& opts);

/// Standalone greedy ranking of candidate tap nodes by marginal
/// observability gain (the machinery behind TestabilityReport::suggestions
/// and the test-point pass).
std::vector<TestPointSuggestion> recommend_test_points(
    const Topology& topo, const TestabilityOptions& opts,
    std::size_t max_points);

/// The scored successor of the binary bist-observability pass. Emits a
/// Warning per unobservable connected node (as before) and an Info per
/// uncontrollable node. Rule: "testability".
class ScoredTestabilityPass final : public Pass {
 public:
  explicit ScoredTestabilityPass(TestabilityOptions opts)
      : opts_(std::move(opts)) {}

  std::string name() const override { return "testability"; }
  void run(const Topology& topo, Report& out) const override;

  const TestabilityOptions& options() const { return opts_; }

 private:
  TestabilityOptions opts_;
};

/// Greedy test-point recommendations as fix-hint diagnostics (severity
/// Info, rule "test-point"). Silent when the declared taps already see
/// every node and no suggestion improves the mean score.
class TestPointPass final : public Pass {
 public:
  explicit TestPointPass(TestabilityOptions opts) : opts_(std::move(opts)) {}

  std::string name() const override { return "test-point"; }
  void run(const Topology& topo, Report& out) const override;

 private:
  TestabilityOptions opts_;
};

}  // namespace msbist::analysis
