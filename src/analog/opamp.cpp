#include "analog/opamp.h"

#include <stdexcept>

#include "circuit/elements.h"
#include "circuit/mos.h"

namespace msbist::analog {

std::string Op1Nodes::numbered(int paper_node) const {
  switch (paper_node) {
    case 1: return in_plus;
    case 2: return in_minus;
    case 3: return out;
    case 4: return bias_p;
    case 5: return bias_n;
    case 6: return tail;
    case 7: return diff_out;
    case 8: return inv1;
    case 9: return inv2;
    default:
      throw std::invalid_argument("Op1Nodes: paper node must be 1..9");
  }
}

Op1Nodes build_op1(circuit::Netlist& netlist, const Op1Options& opts) {
  using circuit::MosParams;
  using circuit::MosType;
  using circuit::Mosfet;
  using circuit::NodeId;

  Op1Nodes nodes;
  const auto pfx = [&](const std::string& base) { return opts.prefix + base; };
  nodes.in_plus = pfx("n1");
  nodes.in_minus = pfx("n2");
  nodes.out = pfx("n3");
  nodes.bias_p = pfx("n4");
  nodes.bias_n = pfx("n5");
  nodes.tail = pfx("n6");
  nodes.diff_out = pfx("n7");
  nodes.inv1 = pfx("n8");
  nodes.inv2 = pfx("n9");

  const NodeId vdd = netlist.node(pfx("vdd"));
  const NodeId n1 = netlist.node(nodes.in_plus);
  const NodeId n2 = netlist.node(nodes.in_minus);
  const NodeId n3 = netlist.node(nodes.out);
  const NodeId n4 = netlist.node(nodes.bias_p);
  const NodeId n5 = netlist.node(nodes.bias_n);
  const NodeId n6 = netlist.node(nodes.tail);
  const NodeId n7 = netlist.node(nodes.diff_out);
  const NodeId n8 = netlist.node(nodes.inv1);
  const NodeId n9 = netlist.node(nodes.inv2);
  const NodeId gnd = circuit::kGround;

  // Supplies and bias.
  netlist.add<circuit::VoltageSource>(vdd, gnd, opts.vdd);
  netlist.name_last(opts.prefix + "VDD");
  netlist.add<circuit::CurrentSource>(n4, gnd, opts.iref);  // pulls IRef out of n4
  netlist.name_last(opts.prefix + "IREF");

  const MosParams pn = MosParams::nmos_5um(10.0);
  const MosParams pp = MosParams::pmos_5um(30.0);
  const MosParams pn_big = MosParams::nmos_5um(20.0);
  const MosParams pp_pair = MosParams::pmos_5um(40.0);

  // M1: PMOS diode-connected bias master (mirrors IRef onto the p line n4).
  netlist.add<Mosfet>(MosType::kPmos, n4, n4, vdd, pp);
  // M2: PMOS tail current source for the differential pair.
  netlist.add<Mosfet>(MosType::kPmos, n6, n4, vdd, pp);
  // M3/M4: PMOS differential pair. In- drives the diode (n5) side and In+
  // the mirror (n7) side so that, after the three inverting stages that
  // follow, node 1 is the non-inverting input as in Figure 3.
  netlist.add<Mosfet>(MosType::kPmos, n5, n2, n6, pp_pair);
  netlist.add<Mosfet>(MosType::kPmos, n7, n1, n6, pp_pair);
  // M5/M6: NMOS mirror load (the figure's "n-type current source", n5 line).
  netlist.add<Mosfet>(MosType::kNmos, n5, n5, gnd, pn);
  netlist.add<Mosfet>(MosType::kNmos, n7, n5, gnd, pn);
  // M7/M8: second stage — NMOS common source with PMOS current-source load.
  netlist.add<Mosfet>(MosType::kNmos, n8, n7, gnd, pn_big);
  netlist.add<Mosfet>(MosType::kPmos, n8, n4, vdd, pp);
  // M9/M10: third stage — CMOS inverter ("inverter" in the figure).
  netlist.add<Mosfet>(MosType::kNmos, n9, n8, gnd, pn);
  netlist.add<Mosfet>(MosType::kPmos, n9, n8, vdd, pp);
  // M11/M12: output buffer — CMOS inverter driving n3.
  netlist.add<Mosfet>(MosType::kNmos, n3, n9, gnd, pn_big);
  netlist.add<Mosfet>(MosType::kPmos, n3, n9, vdd, MosParams::pmos_5um(60.0));
  // M13: output sink biased from the n-type current-source line, giving the
  // buffer a defined quiescent pull-down (completes the 13-device cell).
  netlist.add<Mosfet>(MosType::kNmos, n3, n5, gnd, MosParams::nmos_5um(2.0));

  // Miller compensation across the second stage and the output load.
  if (opts.comp_cap > 0) netlist.add<circuit::Capacitor>(n7, n8, opts.comp_cap);
  if (opts.load_cap > 0) netlist.add<circuit::Capacitor>(n3, gnd, opts.load_cap);

  return nodes;
}

}  // namespace msbist::analog
