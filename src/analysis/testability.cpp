#include "analysis/testability.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "circuit/elements.h"
#include "core/job.h"
#include "circuit/mos.h"

namespace msbist::analysis {

namespace {

constexpr double kControlArcCost = 1.0;   ///< sense pin -> driven terminal
constexpr double kMosChannelCost = 2.0;   ///< drain <-> source (tens of kohm)
constexpr double kSwitchPenalty = 0.5;    ///< state-dependence surcharge
/// Frequency at which capacitor impedance is priced: the BIST stimulus
/// band (the paper's PRBS bit rate is in this range).
constexpr double kAcFrequencyHz = 100e3;

/// Conduction cost of an ohmic path: log-scaled so a 100 ohm probe
/// resistor costs ~2 and a 30 Mohm bleed ~7.5 — the score stays a usable
/// ranking across the decades a netlist actually spans.
double ohmic_cost(double ohms) { return std::log10(1.0 + std::max(ohms, 0.0)); }

double score_of(double cost) {
  return std::isinf(cost) ? 0.0 : 1.0 / (1.0 + cost);
}

std::string format2(double v) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

std::vector<bool> supply_pinned_vertices(const Topology& topo) {
  // A vertex is supply-pinned when a chain of ideal independent voltage
  // sources ties it to ground: its potential is fixed no matter what the
  // rest of the circuit does.
  std::vector<std::vector<std::size_t>> adj(topo.vertex_count());
  for (const auto& e : topo.dc_edges()) {
    if (dynamic_cast<const circuit::VoltageSource*>(e.element) == nullptr) {
      continue;
    }
    adj[e.a].push_back(e.b);
    adj[e.b].push_back(e.a);
  }
  std::vector<bool> pinned(topo.vertex_count(), false);
  std::vector<std::size_t> stack{topo.ground()};
  pinned[topo.ground()] = true;
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    for (std::size_t w : adj[v]) {
      if (!pinned[w]) {
        pinned[w] = true;
        stack.push_back(w);
      }
    }
  }
  return pinned;
}

std::vector<std::size_t> resolve_vertices(const Topology& topo,
                                          const std::vector<std::string>& names,
                                          std::vector<std::string>* unknown) {
  std::vector<std::size_t> out;
  for (const std::string& name : names) {
    try {
      out.push_back(topo.vertex(topo.netlist().find_node(name)));
    } catch (const std::out_of_range&) {
      if (unknown != nullptr) unknown->push_back(name);
    }
  }
  return out;
}

SignalGraph::SignalGraph(const Topology& topo)
    : topo_(&topo),
      rail_(supply_pinned_vertices(topo)),
      fwd_(topo.vertex_count()),
      rev_(topo.vertex_count()) {
  const auto v = [&](circuit::NodeId n) { return topo.vertex(n); };
  for (const auto& el : topo.netlist().elements()) {
    const circuit::Element* e = el.get();
    if (const auto* r = dynamic_cast<const circuit::Resistor*>(e)) {
      add_undirected(v(r->node_a()), v(r->node_b()), ohmic_cost(r->resistance()));
    } else if (const auto* c = dynamic_cast<const circuit::Capacitor*>(e)) {
      if (c->capacitance() > 0.0) {
        const double z = 1.0 / (2.0 * 3.14159265358979323846 *
                                kAcFrequencyHz * c->capacitance());
        add_undirected(v(c->node_a()), v(c->node_b()), ohmic_cost(z));
      }
    } else if (const auto* m = dynamic_cast<const circuit::Mosfet*>(e)) {
      add_undirected(v(m->drain()), v(m->source()), kMosChannelCost);
      add_arc(v(m->gate()), v(m->drain()), kControlArcCost);
      add_arc(v(m->gate()), v(m->source()), kControlArcCost);
    } else if (const auto* ts = dynamic_cast<const circuit::TimedSwitch*>(e)) {
      const auto t = ts->terminals();
      add_undirected(v(t[0]), v(t[1]), ohmic_cost(ts->r_on()) + kSwitchPenalty);
    } else if (const auto* vsw = dynamic_cast<const circuit::VoltageSwitch*>(e)) {
      const auto t = vsw->terminals();  // a, b, ctrl+, ctrl-
      add_undirected(v(t[0]), v(t[1]), ohmic_cost(vsw->r_on()) + kSwitchPenalty);
      for (int s : {2, 3}) {
        add_arc(v(t[s]), v(t[0]), kControlArcCost);
        add_arc(v(t[s]), v(t[1]), kControlArcCost);
      }
    } else if (dynamic_cast<const circuit::Vcvs*>(e) != nullptr ||
               dynamic_cast<const circuit::Vccs*>(e) != nullptr) {
      // Dependent sources: influence flows from the sense pair to the
      // driven pair only. The driven pair itself is not a conduction path
      // (a Vcvs pins the voltage across it; a Vccs output is a current).
      const auto t = e->terminals();  // out+, out-, in+, in-
      for (int s : {2, 3}) {
        for (int d : {0, 1}) {
          add_arc(v(t[s]), v(t[d]), kControlArcCost);
        }
      }
    }
    // VoltageSource / CurrentSource: an ideal independent source is not a
    // signal path — the voltage source pins its nodes (see rail_), and no
    // perturbation conducts through a current output.
  }
}

void SignalGraph::add_arc(std::size_t from, std::size_t to, double cost) {
  if (from == to) return;
  fwd_[from].push_back({to, cost});
  rev_[to].push_back({from, cost});
}

void SignalGraph::add_undirected(std::size_t a, std::size_t b, double cost) {
  add_arc(a, b, cost);
  add_arc(b, a, cost);
}

std::vector<double> SignalGraph::distances(const std::vector<std::size_t>& seeds,
                                           bool reverse) const {
  const auto& adj = reverse ? rev_ : fwd_;
  std::vector<double> dist(topo_->vertex_count(), kUnreachable);
  std::vector<bool> seed(topo_->vertex_count(), false);
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t s : seeds) {
    seed[s] = true;
    if (dist[s] > 0.0) {
      dist[s] = 0.0;
      heap.push({0.0, s});
    }
  }
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    // A supply-pinned vertex is an ideal sink: signal arrives but does not
    // relay — except when the seed itself sits on the rail (that is how a
    // stimulus source, or a tap wired to a pinned net, fans out).
    if (rail_[u] && !seed[u]) continue;
    for (const Arc& a : adj[u]) {
      const double nd = d + a.cost;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        heap.push({nd, a.to});
      }
    }
  }
  return dist;
}

std::vector<bool> SignalGraph::can_influence(
    const std::vector<std::size_t>& taps) const {
  const std::vector<double> d = distances(taps, /*reverse=*/true);
  std::vector<bool> out(d.size(), false);
  for (std::size_t v = 0; v < d.size(); ++v) {
    out[v] = !rail_[v] && !std::isinf(d[v]);
  }
  return out;
}

namespace {

/// Auto-detected stimulus vertices: every non-ground terminal of an
/// independent source. Supplies count — they are drive points, if
/// inflexible ones; rail scoring conventions keep them out of the stats.
std::vector<std::size_t> detect_stimuli(const Topology& topo) {
  std::vector<std::size_t> out;
  std::vector<bool> seen(topo.vertex_count(), false);
  for (const auto& el : topo.netlist().elements()) {
    const circuit::Element* e = el.get();
    if (dynamic_cast<const circuit::VoltageSource*>(e) == nullptr &&
        dynamic_cast<const circuit::CurrentSource*>(e) == nullptr) {
      continue;
    }
    for (circuit::NodeId n : e->terminals()) {
      const std::size_t v = topo.vertex(n);
      if (v != topo.ground() && !seen[v]) {
        seen[v] = true;
        out.push_back(v);
      }
    }
  }
  return out;
}

struct GreedyState {
  const SignalGraph* graph = nullptr;
  std::vector<double> observe_cost;  ///< current min cost per vertex
  std::vector<bool> is_tap;
};

/// One greedy round: the candidate whose addition to the tap set gains
/// the most total observability score. Deterministic tie-break on vertex
/// order. Returns false when no candidate improves anything.
bool greedy_step(GreedyState& st, TestPointSuggestion& out,
                 std::vector<double>& best_cost) {
  const Topology& topo = st.graph->topology();
  double best_gain = 1e-12;
  std::size_t best_v = topo.vertex_count();
  std::size_t best_new = 0;
  for (std::size_t c = 0; c < topo.ground(); ++c) {
    if (st.is_tap[c] || st.graph->is_rail(c) || topo.degree(c) == 0) continue;
    std::vector<double> dc = st.graph->distances({c}, /*reverse=*/true);
    double gain = 0.0;
    std::size_t newly = 0;
    for (std::size_t v = 0; v < topo.ground(); ++v) {
      if (topo.degree(v) == 0 || st.graph->is_rail(v)) continue;
      const double nc = std::min(st.observe_cost[v], dc[v]);
      gain += score_of(nc) - score_of(st.observe_cost[v]);
      if (std::isinf(st.observe_cost[v]) && !std::isinf(nc)) ++newly;
    }
    if (gain > best_gain) {
      best_gain = gain;
      best_v = c;
      best_new = newly;
      best_cost = std::move(dc);
    }
  }
  if (best_v == topo.vertex_count()) return false;
  out.node = topo.vertex_name(best_v);
  out.gain = best_gain;
  out.newly_observable = best_new;
  st.is_tap[best_v] = true;
  for (std::size_t v = 0; v < st.observe_cost.size(); ++v) {
    st.observe_cost[v] = std::min(st.observe_cost[v], best_cost[v]);
  }
  return true;
}

std::vector<TestPointSuggestion> greedy_suggestions(
    const SignalGraph& graph, const std::vector<std::size_t>& tap_vertices,
    std::size_t max_points) {
  GreedyState st;
  st.graph = &graph;
  st.observe_cost = graph.distances(tap_vertices, /*reverse=*/true);
  st.is_tap.assign(graph.topology().vertex_count(), false);
  for (std::size_t t : tap_vertices) st.is_tap[t] = true;
  std::vector<TestPointSuggestion> out;
  std::vector<double> scratch;
  for (std::size_t round = 0; round < max_points; ++round) {
    TestPointSuggestion s;
    if (!greedy_step(st, s, scratch)) break;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

const NodeTestability* TestabilityReport::find(const std::string& node) const {
  for (const NodeTestability& n : nodes) {
    if (n.node == node) return &n;
  }
  return nullptr;
}

core::Outcome TestabilityReport::outcome() const {
  std::ostringstream os;
  os.precision(3);
  os << nodes.size() << " nodes, " << unobservable << " unobservable, "
     << uncontrollable << " uncontrollable, mean observability "
     << mean_observability;
  if (!unknown_taps.empty()) {
    os << ", " << unknown_taps.size() << " unknown tap(s)";
  }
  const bool pass = unknown_taps.empty() && unobservable == 0;
  return {pass, os.str()};
}

void TestabilityReport::to_json(core::JsonWriter& w) const {
  w.begin_object();
  core::write_report_envelope(w, "testability_report");
  w.key("taps").begin_array();
  for (const auto& t : taps) w.value(t);
  w.end_array();
  w.key("unknown_taps").begin_array();
  for (const auto& t : unknown_taps) w.value(t);
  w.end_array();
  w.key("stimuli").begin_array();
  for (const auto& s : stimuli) w.value(s);
  w.end_array();
  w.member("node_count", static_cast<std::uint64_t>(nodes.size()))
      .member("unobservable", static_cast<std::uint64_t>(unobservable))
      .member("uncontrollable", static_cast<std::uint64_t>(uncontrollable))
      .member("mean_controllability", mean_controllability)
      .member("mean_observability", mean_observability);
  w.key("nodes").begin_array();
  for (const NodeTestability& n : nodes) {
    w.begin_object()
        .member("node", n.node)
        .member("controllability", n.controllability)
        .member("observability", n.observability)
        .member("control_cost", n.control_cost)    // inf -> null
        .member("observe_cost", n.observe_cost)
        .member("rail", n.rail)
        .member("tap", n.tap)
        .member("connected", n.connected)
        .end_object();
  }
  w.end_array();
  w.key("suggestions").begin_array();
  for (const TestPointSuggestion& s : suggestions) {
    w.begin_object()
        .member("node", s.node)
        .member("gain", s.gain)
        .member("newly_observable", static_cast<std::uint64_t>(s.newly_observable))
        .end_object();
  }
  w.end_array();
  w.end_object();
}

TestabilityReport analyze_testability(const Topology& topo,
                                      const TestabilityOptions& opts) {
  const SignalGraph graph(topo);
  TestabilityReport rep;

  const std::vector<std::size_t> tap_vs =
      resolve_vertices(topo, opts.taps, &rep.unknown_taps);
  for (std::size_t t : tap_vs) rep.taps.push_back(topo.vertex_name(t));

  const std::vector<std::size_t> stim_vs = detect_stimuli(topo);
  for (std::size_t s : stim_vs) rep.stimuli.push_back(topo.vertex_name(s));

  const std::vector<double> ctrl = graph.distances(stim_vs, /*reverse=*/false);
  const std::vector<double> obs = graph.distances(tap_vs, /*reverse=*/true);
  std::vector<bool> is_tap(topo.vertex_count(), false);
  for (std::size_t t : tap_vs) is_tap[t] = true;

  double sum_c = 0.0, sum_o = 0.0;
  std::size_t scored = 0;
  rep.nodes.reserve(topo.ground());
  for (std::size_t v = 0; v < topo.ground(); ++v) {
    NodeTestability n;
    n.node = topo.vertex_name(v);
    n.rail = graph.is_rail(v);
    n.tap = is_tap[v];
    n.connected = topo.degree(v) > 0;
    if (n.rail) {
      // Pinned by construction: trivially controllable, level known.
      n.control_cost = 0.0;
      n.observe_cost = 0.0;
      n.controllability = 1.0;
      n.observability = 1.0;
    } else {
      n.control_cost = ctrl[v];
      n.observe_cost = obs[v];
      n.controllability = score_of(ctrl[v]);
      n.observability = score_of(obs[v]);
      if (n.connected) {
        ++scored;
        sum_c += n.controllability;
        sum_o += n.observability;
        if (n.observability == 0.0) ++rep.unobservable;
        if (n.controllability == 0.0) ++rep.uncontrollable;
      }
    }
    rep.nodes.push_back(std::move(n));
  }
  if (scored > 0) {
    rep.mean_controllability = sum_c / static_cast<double>(scored);
    rep.mean_observability = sum_o / static_cast<double>(scored);
  }
  if (opts.max_suggestions > 0) {
    rep.suggestions = greedy_suggestions(graph, tap_vs, opts.max_suggestions);
  }
  return rep;
}

TestabilityReport analyze_testability(const circuit::Netlist& netlist,
                                      const TestabilityOptions& opts) {
  const Topology topo(netlist);
  return analyze_testability(topo, opts);
}

std::vector<TestPointSuggestion> recommend_test_points(
    const Topology& topo, const TestabilityOptions& opts,
    std::size_t max_points) {
  const SignalGraph graph(topo);
  const std::vector<std::size_t> tap_vs =
      resolve_vertices(topo, opts.taps, nullptr);
  return greedy_suggestions(graph, tap_vs, max_points);
}

void ScoredTestabilityPass::run(const Topology& topo, Report& out) const {
  if (opts_.taps.empty()) {
    out.add({Severity::kInfo, name(),
             "no BIST observation taps declared; observability not assessed",
             "", "", "pass the tap nodes (level-sensor / test-access inputs)"});
    return;
  }
  TestabilityOptions opts = opts_;
  opts.max_suggestions = 0;  // the test-point pass owns recommendations
  const TestabilityReport rep = analyze_testability(topo, opts);
  for (const std::string& tap : rep.unknown_taps) {
    out.add({Severity::kWarning, name(),
             "declared observation tap is not a node of this netlist", tap, "",
             "fix the tap list"});
  }
  for (const NodeTestability& n : rep.nodes) {
    if (!n.connected || n.rail) continue;
    if (n.observability == 0.0) {
      out.add({Severity::kWarning, name(),
               "unobservable by the BIST macros: no signal path carries this "
               "node's state to any declared tap — the ramp-gain-masking "
               "blind spot of the paper, generalized",
               n.node, "",
               "route the node to a DcLevelSensor or declared observation tap "
               "or accept that faults here escape the BIST tiers"});
    }
    if (n.controllability == 0.0) {
      out.add({Severity::kInfo, name(),
               "uncontrollable from the stimulus sources: no signal path "
               "drives this node",
               n.node, "", "check the stimulus wiring or add a drive point"});
    }
  }
}

void TestPointPass::run(const Topology& topo, Report& out) const {
  const std::size_t max_points =
      opts_.max_suggestions > 0 ? opts_.max_suggestions : 3;
  const std::vector<TestPointSuggestion> suggestions =
      recommend_test_points(topo, opts_, max_points);
  for (const TestPointSuggestion& s : suggestions) {
    std::ostringstream msg;
    msg << "candidate BIST tap: raises total observability score by "
        << format2(s.gain);
    if (s.newly_observable > 0) {
      msg << " and makes " << s.newly_observable
          << " blind node(s) observable";
    }
    out.add({Severity::kInfo, name(), msg.str(), s.node, "",
             "wire this node to a DcLevelSensor or declared observation tap"});
  }
}

}  // namespace msbist::analysis
