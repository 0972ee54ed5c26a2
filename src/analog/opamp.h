// Operational amplifier macro: build_op1 builds the transistor-level OP1
// cell of the paper's Figure 3, a 13-transistor two-stage CMOS amplifier
// in 5 um technology with the paper's node numbering (1=In+, 2=In-,
// 3=Out, 4=IRef/p-bias, 5=n-bias, 6=diff tail, 7=diff output, 8/9=inverter
// outputs). The transient-response experiments of the paper inject faults
// at these nodes.
#pragma once

#include <string>
#include <vector>

#include "analog/macro.h"
#include "circuit/netlist.h"

namespace msbist::analog {

/// Node-name map for the OP1 transistor-level cell, matching Figure 3.
struct Op1Nodes {
  std::string in_plus = "n1";
  std::string in_minus = "n2";
  std::string out = "n3";
  std::string bias_p = "n4";   ///< IRef / p-type current source gate line
  std::string bias_n = "n5";   ///< n-type current source gate line
  std::string tail = "n6";     ///< diff-amp tail
  std::string diff_out = "n7"; ///< first-stage output
  std::string inv1 = "n8";     ///< second-stage (inverter) output
  std::string inv2 = "n9";     ///< third-stage (inverter) output

  /// Paper node number (1..9) -> node name used in the netlist.
  std::string numbered(int paper_node) const;
};

/// Options for the transistor-level build.
struct Op1Options {
  double vdd = 5.0;
  double iref = 20e-6;         ///< bias reference current [A]
  double comp_cap = 5e-12;     ///< Miller compensation C between n7 and n8
  double load_cap = 10e-12;    ///< output load at n3
  std::string prefix;          ///< node-name prefix for multi-instance use
};

/// Build OP1 into an existing netlist (so faults, supplies and surrounding
/// switched-capacitor components can be added by the caller). VDD and IRef
/// sources are included. Returns the node map (prefixed when requested).
Op1Nodes build_op1(circuit::Netlist& netlist, const Op1Options& opts = {});

/// Number of MOS transistors in the OP1 cell (the paper's count).
inline constexpr int kOp1TransistorCount = 13;

}  // namespace msbist::analog
