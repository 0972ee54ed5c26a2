#include "faults/collapse.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "analysis/topology.h"
#include "core/job.h"
#include "circuit/elements.h"
#include "circuit/mos.h"

namespace msbist::faults {

namespace {

using analysis::SignalGraph;
using analysis::Topology;

/// Minimal union-find over topology vertices (symmetry orbits).
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// One injected component of a fault after canonicalization.
struct Component {
  bool bridge = false;
  std::size_t a = 0, b = 0;  ///< vertices; a <= b for bridges
  bool high = false;         ///< clamp level

  std::string str() const {
    if (bridge) {
      return "bridge:" + std::to_string(a) + ":" + std::to_string(b);
    }
    return "clamp:" + std::to_string(a) + ":" + (high ? "1" : "0");
  }
};

/// Canonical structural description of an element under a vertex map.
/// Elements whose parameters are not statically accessible (sources,
/// switches, dependent sources) get an index-unique opaque tag: any
/// transposition that moves one of their terminals then breaks multiset
/// equality, which conservatively rejects the symmetry.
std::string describe(const Topology& topo, const circuit::Element& e,
                     std::size_t index, std::size_t u, std::size_t w) {
  const auto vmap = [&](circuit::NodeId n) {
    std::size_t v = topo.vertex(n);
    if (v == u) return w;
    if (v == w) return u;
    return v;
  };
  if (const auto* r = dynamic_cast<const circuit::Resistor*>(&e)) {
    std::size_t a = vmap(r->node_a()), b = vmap(r->node_b());
    if (a > b) std::swap(a, b);
    return "R:" + fmt(r->resistance()) + ":" + std::to_string(a) + "," +
           std::to_string(b);
  }
  if (const auto* c = dynamic_cast<const circuit::Capacitor*>(&e)) {
    std::size_t a = vmap(c->node_a()), b = vmap(c->node_b());
    if (a > b) std::swap(a, b);
    return "C:" + fmt(c->capacitance()) + ":" + std::to_string(a) + "," +
           std::to_string(b);
  }
  if (const auto* m = dynamic_cast<const circuit::Mosfet*>(&e)) {
    const circuit::MosParams& p = m->params();
    return std::string("M:") + (m->type() == circuit::MosType::kNmos ? "n" : "p") +
           ":" + fmt(p.vt) + "," + fmt(p.kp) + "," + fmt(p.lambda) + "," +
           fmt(p.w_over_l) + ":" + std::to_string(vmap(m->drain())) + "," +
           std::to_string(vmap(m->gate())) + "," +
           std::to_string(vmap(m->source()));
  }
  std::string out = "O" + std::to_string(index) + ":";
  for (circuit::NodeId n : e.terminals()) {
    out += std::to_string(vmap(n)) + ",";
  }
  return out;
}

std::vector<std::string> describe_all(const Topology& topo, std::size_t u,
                                      std::size_t w) {
  std::vector<std::string> out;
  std::size_t index = 0;
  for (const auto& el : topo.netlist().elements()) {
    out.push_back(describe(topo, *el, index++, u, w));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const char* to_string(CollapseRule rule) {
  switch (rule) {
    case CollapseRule::kRepresentative: return "representative";
    case CollapseRule::kDedup: return "dedup";
    case CollapseRule::kSymmetry: return "symmetry";
    case CollapseRule::kUndetectable: return "undetectable";
  }
  return "?";
}

CollapseMap CollapseMap::from_signatures(
    const std::vector<std::string>& signatures,
    const std::vector<bool>& undetectable, std::vector<CollapseRule> rules) {
  const std::size_t n = signatures.size();
  if (undetectable.size() != n || (!rules.empty() && rules.size() != n)) {
    throw std::invalid_argument("CollapseMap: mismatched input sizes");
  }
  CollapseMap m;
  m.rep_.resize(n);
  m.undetectable_ = undetectable;
  m.rule_ = rules.empty() ? std::vector<CollapseRule>(n, CollapseRule::kDedup)
                          : std::move(rules);
  std::unordered_map<std::string, std::size_t> first;
  for (std::size_t i = 0; i < n; ++i) {
    if (m.undetectable_[i]) {
      m.rep_[i] = i;
      m.rule_[i] = CollapseRule::kUndetectable;
      continue;
    }
    const auto [it, inserted] = first.try_emplace(signatures[i], i);
    m.rep_[i] = it->second;
    if (inserted) {
      m.reps_.push_back(i);
      m.rule_[i] = CollapseRule::kRepresentative;
    }
  }
  return m;
}

std::vector<std::size_t> CollapseMap::members_of(std::size_t rep) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rep_.size(); ++i) {
    if (!undetectable_[i] && rep_[i] == rep) out.push_back(i);
  }
  return out;
}

std::size_t CollapseMap::undetectable_count() const {
  std::size_t n = 0;
  for (bool u : undetectable_) n += u ? 1 : 0;
  return n;
}

std::vector<FaultResult> CollapsedUniverse::expand(
    const std::vector<FaultResult>& rep_results) const {
  const auto& reps = map.representatives();
  if (rep_results.size() != reps.size()) {
    throw std::invalid_argument(
        "CollapsedUniverse::expand: one result per representative required");
  }
  std::unordered_map<std::size_t, std::size_t> slot;
  for (std::size_t p = 0; p < reps.size(); ++p) slot.emplace(reps[p], p);
  std::vector<FaultResult> out(universe.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (map.is_undetectable(i)) {
      // By construction no measurement at the taps changes, so any
      // class-consistent test reports a clean escape.
      out[i] = FaultResult{};
    } else {
      out[i] = rep_results[slot.at(map.representative_of(i))];
      if (!map.is_representative(i)) out[i].elapsed_seconds = 0.0;
    }
    out[i].fault = universe[i];
  }
  return out;
}

core::Outcome CollapsedUniverse::outcome() const {
  std::ostringstream os;
  os.precision(3);
  os << universe.size() << " faults -> " << map.simulated_count()
     << " simulated, " << map.solves_saved() << " saved ("
     << collapse_ratio() * 100.0 << " %), " << map.undetectable_count()
     << " statically undetectable";
  return {map.undetectable_count() == 0, os.str()};
}

void CollapsedUniverse::to_json(core::JsonWriter& w) const {
  w.begin_object();
  core::write_report_envelope(w, "collapsed_universe");
  w.member("faults", static_cast<std::uint64_t>(universe.size()))
      .member("simulated", static_cast<std::uint64_t>(map.simulated_count()))
      .member("solves_saved", static_cast<std::uint64_t>(map.solves_saved()))
      .member("statically_undetectable",
              static_cast<std::uint64_t>(map.undetectable_count()))
      .member("collapse_ratio", collapse_ratio())
      // Schema v2 member: every fold is an exact equivalence.
      .member("approximate", false);
  w.key("classes").begin_array();
  for (std::size_t rep : map.representatives()) {
    w.begin_object().member("representative", universe[rep].label);
    w.key("members").begin_array();
    for (std::size_t i : map.members_of(rep)) w.value(universe[i].label);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("fault_details").begin_array();
  for (std::size_t i = 0; i < universe.size(); ++i) {
    w.begin_object()
        .member("label", universe[i].label)
        .member("signature", signatures[i])
        .member("rule", to_string(map.rule(i)))
        .member("undetectable", map.is_undetectable(i))
        .member("reason", reasons[i])
        .end_object();
  }
  w.end_array();
  w.end_object();
}

CollapsedUniverse collapse(const std::vector<FaultSpec>& universe,
                           const circuit::Netlist& netlist, const NodeMap& map,
                           const CollapseOptions& opts) {
  const Topology topo(netlist);
  const SignalGraph graph(topo);

  std::vector<std::string> unknown;
  const std::vector<std::size_t> tap_vs =
      analysis::resolve_vertices(topo, opts.taps, &unknown);
  if (!unknown.empty()) {
    throw std::invalid_argument("collapse: unknown tap node '" + unknown.front() +
                                "'");
  }
  const bool use_observability = !tap_vs.empty();
  const std::vector<bool> influence =
      use_observability ? graph.can_influence(tap_vs)
                        : std::vector<bool>(topo.vertex_count(), true);
  const std::vector<bool>& pinned = graph.rails();
  std::vector<bool> is_tap(topo.vertex_count(), false);
  for (std::size_t t : tap_vs) is_tap[t] = true;

  const auto resolve = [&](const FaultSpec& f, int paper_node) -> std::size_t {
    try {
      return topo.vertex(netlist.find_node(map(paper_node)));
    } catch (const std::exception& e) {
      throw std::invalid_argument("collapse: fault '" + f.label +
                                  "' names an unknown node (" + e.what() + ")");
    }
  };

  const std::size_t n = universe.size();
  std::vector<std::vector<Component>> footprints(n);
  std::vector<std::string> notes(n);
  std::vector<CollapseRule> rules(n, CollapseRule::kDedup);

  const auto note = [&](std::size_t i, const std::string& text) {
    if (!notes[i].empty()) notes[i] += "; ";
    notes[i] += text;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const FaultSpec& f = universe[i];
    std::vector<Component> raw;
    switch (f.kind) {
      case FaultKind::kStuckAt0:
      case FaultKind::kStuckAt1:
        raw.push_back({false, resolve(f, f.node_a), 0,
                       f.kind == FaultKind::kStuckAt1});
        break;
      case FaultKind::kDoubleStuck:
        raw.push_back({false, resolve(f, f.node_a), 0, f.stuck_high});
        raw.push_back({false, resolve(f, f.node_b), 0, f.stuck_high});
        break;
      case FaultKind::kBridge: {
        Component c;
        c.bridge = true;
        c.a = resolve(f, f.node_a);
        c.b = resolve(f, f.node_b);
        raw.push_back(c);
        break;
      }
    }
    for (Component c : raw) {
      if (c.bridge) {
        if (c.a == c.b) {
          // A bridge from a node to itself shorts nothing.
          note(i, "bridge across an existing tie is a no-op");
          continue;
        }
        if (c.a > c.b) std::swap(c.a, c.b);
        const bool a_live = !pinned[c.a], b_live = !pinned[c.b];
        if (!a_live && !b_live) {
          note(i, "bridge between supply-pinned nodes changes no voltage");
          continue;
        }
        if (use_observability && (!a_live || !influence[c.a]) &&
            (!b_live || !influence[c.b])) {
          note(i, "bridge " + topo.vertex_name(c.a) + "-" +
                      topo.vertex_name(c.b) + " has no signal path to a tap");
          continue;
        }
      } else {
        if (pinned[c.a]) {
          note(i, "clamp at supply-pinned " + topo.vertex_name(c.a) +
                      " is absorbed by the ideal source");
          continue;
        }
        if (use_observability && !influence[c.a]) {
          note(i, "clamp at " + topo.vertex_name(c.a) +
                      " has no signal path to a tap");
          continue;
        }
      }
      footprints[i].push_back(c);
    }
  }

  // Symmetric folding: verify candidate vertex transpositions as netlist
  // automorphisms, then rewrite footprints to per-orbit canonical vertices.
  std::vector<bool> sym_folded(n, false);
  std::vector<std::size_t> cand;
  {
    std::vector<bool> seen(topo.vertex_count(), false);
    const auto consider = [&](std::size_t v) {
      if (!seen[v] && !pinned[v] && !is_tap[v] && v != topo.ground()) {
        seen[v] = true;
        cand.push_back(v);
      }
    };
    for (const auto& fp : footprints) {
      for (const Component& c : fp) {
        consider(c.a);
        if (c.bridge) consider(c.b);
      }
    }
    std::sort(cand.begin(), cand.end());
  }
  const std::vector<std::string> base =
      describe_all(topo, topo.vertex_count(), topo.vertex_count());
  DisjointSet orbits(topo.vertex_count());
  for (std::size_t x = 0; x < cand.size(); ++x) {
    for (std::size_t y = x + 1; y < cand.size(); ++y) {
      const std::size_t u = cand[x], w = cand[y];
      if (orbits.find(u) == orbits.find(w)) continue;
      if (topo.degree(u) != topo.degree(w)) continue;
      if (describe_all(topo, u, w) == base) orbits.unite(u, w);
    }
  }
  // Orbit root = smallest member, so canonicalization is deterministic.
  std::vector<std::size_t> orbit_min(topo.vertex_count());
  std::iota(orbit_min.begin(), orbit_min.end(), std::size_t{0});
  for (std::size_t v : cand) {
    const std::size_t root = orbits.find(v);
    orbit_min[root] = std::min(orbit_min[root], v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Per-vertex orbit canonicalization composes disjoint transpositions
    // into one automorphism — valid only while no two footprint vertices
    // share an orbit (a single transposition cannot merge them).
    std::vector<std::size_t> roots;
    bool ok = true;
    const auto add_root = [&](std::size_t v) {
      const std::size_t root = orbits.find(v);
      if (std::find(roots.begin(), roots.end(), root) != roots.end()) {
        ok = false;
      }
      roots.push_back(root);
    };
    for (const Component& c : footprints[i]) {
      add_root(c.a);
      if (c.bridge) add_root(c.b);
    }
    if (!ok) continue;
    for (Component& c : footprints[i]) {
      const std::size_t na = orbit_min[orbits.find(c.a)];
      if (na != c.a) {
        note(i, "node " + topo.vertex_name(c.a) + " ~ " +
                    topo.vertex_name(na) + " (symmetric)");
        c.a = na;
        sym_folded[i] = true;
      }
      if (c.bridge) {
        const std::size_t nb = orbit_min[orbits.find(c.b)];
        if (nb != c.b) {
          note(i, "node " + topo.vertex_name(c.b) + " ~ " +
                      topo.vertex_name(nb) + " (symmetric)");
          c.b = nb;
          sym_folded[i] = true;
        }
        if (c.a > c.b) std::swap(c.a, c.b);
      }
    }
  }

  // Signatures from the canonical footprints.
  CollapsedUniverse out;
  out.universe = universe;
  out.signatures.resize(n);
  std::vector<bool> undetectable(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> parts;
    for (const Component& c : footprints[i]) parts.push_back(c.str());
    std::sort(parts.begin(), parts.end());
    std::string sig;
    for (const std::string& p : parts) {
      if (!sig.empty()) sig += "+";
      sig += p;
    }
    if (sig.empty()) {
      sig = "none";
      undetectable[i] = true;
      rules[i] = CollapseRule::kUndetectable;
    } else if (sym_folded[i]) {
      rules[i] = CollapseRule::kSymmetry;
    }
    out.signatures[i] = std::move(sig);
  }

  out.map = CollapseMap::from_signatures(out.signatures, undetectable,
                                         std::move(rules));

  out.reasons.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string reason;
    if (out.map.is_undetectable(i)) {
      reason = "statically undetectable";
    } else if (out.map.is_representative(i)) {
      const std::size_t members = out.map.members_of(i).size();
      reason = "representative";
      if (members > 1) {
        reason += " of " + std::to_string(members) + " faults";
      }
    } else {
      reason = "collapsed into " + universe[out.map.representative_of(i)].label;
    }
    if (!notes[i].empty()) reason += ": " + notes[i];
    out.reasons[i] = std::move(reason);
  }
  return out;
}

}  // namespace msbist::faults
