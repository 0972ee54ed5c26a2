// The paper's fault universes.
//
// Circuit 1 (OP1, 13 transistors): 16 faulty circuits —
//   single stuck-at-0/1 at the major nodes 4, 5, 7, 8 and 3 (10 faults),
//   double faults at node pairs 8-9, 5-8 and 4-6, both polarities
//   (6 faults), approximating bridging across the MOS transistors.
//
// Circuits 2 and 3 (SC integrator + comparator / SC integrator alone):
//   12 faulty circuits — single stuck-at-0/1 at the integrator nodes
//   4, 5, 7, 8 and 9 (10 faults) plus bridging faults on nodes 6-7 and
//   5-8 (2 faults).
#pragma once

#include <vector>

#include "faults/fault.h"

namespace msbist::faults {

/// The 16-fault universe for the paper's circuit 1.
std::vector<FaultSpec> op1_fault_universe();

/// The 12-fault universe for the paper's circuits 2 and 3.
std::vector<FaultSpec> sc_fault_universe();

/// Exhaustive single-stuck-at universe over a node range (for wider
/// coverage studies beyond the paper's selection).
std::vector<FaultSpec> all_single_stuck(int first_node, int last_node);

/// A fault universe enumerated from a netlist's own topology instead of a
/// hand-picked paper node range: SA0/SA1 at every internal node that is
/// neither ground, supply-pinned (clamping a node pinned by a chain of
/// independent voltage sources is a no-op against an ideal source), nor
/// dangling (unconnected or a single-terminal stub). Site k (1-based, the
/// FaultSpec node number) resolves to sites[k-1] through node_map().
struct FaultSiteUniverse {
  std::vector<FaultSpec> faults;   ///< SA0 then SA1 per site, site order
  std::vector<std::string> sites;  ///< site node names, netlist node order

  /// NodeMap resolving the 1-based site numbers used in `faults`.
  NodeMap node_map() const;
};

/// Enumerate the single-stuck-at universe of a netlist (see
/// FaultSiteUniverse). The labels carry the node names ("SA0@n7").
FaultSiteUniverse all_single_stuck(const circuit::Netlist& netlist);

}  // namespace msbist::faults
