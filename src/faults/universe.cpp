#include "faults/universe.h"

#include <stdexcept>

#include "analysis/testability.h"
#include "analysis/topology.h"

namespace msbist::faults {

std::vector<FaultSpec> op1_fault_universe() {
  std::vector<FaultSpec> u;
  for (int node : {4, 5, 7, 8, 3}) {
    u.push_back(FaultSpec::stuck_at(node, false));
    u.push_back(FaultSpec::stuck_at(node, true));
  }
  for (auto [a, b] : {std::pair{8, 9}, std::pair{5, 8}, std::pair{4, 6}}) {
    u.push_back(FaultSpec::double_stuck(a, b, false));
    u.push_back(FaultSpec::double_stuck(a, b, true));
  }
  return u;  // 16 faults
}

std::vector<FaultSpec> sc_fault_universe() {
  std::vector<FaultSpec> u;
  for (int node : {4, 5, 7, 8, 9}) {
    u.push_back(FaultSpec::stuck_at(node, false));
    u.push_back(FaultSpec::stuck_at(node, true));
  }
  u.push_back(FaultSpec::bridge(6, 7));
  u.push_back(FaultSpec::bridge(5, 8));
  return u;  // 12 faults
}

std::vector<FaultSpec> all_single_stuck(int first_node, int last_node) {
  if (last_node < first_node) {
    throw std::invalid_argument("all_single_stuck: bad node range");
  }
  std::vector<FaultSpec> u;
  for (int node = first_node; node <= last_node; ++node) {
    u.push_back(FaultSpec::stuck_at(node, false));
    u.push_back(FaultSpec::stuck_at(node, true));
  }
  return u;
}

NodeMap FaultSiteUniverse::node_map() const {
  return [sites = sites](int site) -> std::string {
    if (site < 1 || static_cast<std::size_t>(site) > sites.size()) {
      throw std::out_of_range("FaultSiteUniverse: no site " +
                              std::to_string(site));
    }
    return sites[static_cast<std::size_t>(site) - 1];
  };
}

FaultSiteUniverse all_single_stuck(const circuit::Netlist& netlist) {
  const analysis::Topology topo(netlist);
  const std::vector<bool> pinned = analysis::supply_pinned_vertices(topo);
  FaultSiteUniverse u;
  for (std::size_t v = 0; v < topo.ground(); ++v) {
    if (topo.degree(v) < 2 || pinned[v]) continue;
    u.sites.push_back(topo.vertex_name(v));
  }
  for (std::size_t k = 0; k < u.sites.size(); ++k) {
    for (bool high : {false, true}) {
      FaultSpec f = FaultSpec::stuck_at(static_cast<int>(k) + 1, high);
      f.label = std::string(high ? "SA1@" : "SA0@") + u.sites[k];
      u.faults.push_back(std::move(f));
    }
  }
  return u;
}

}  // namespace msbist::faults
