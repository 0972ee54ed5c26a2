#include "circuit/netlist.h"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

namespace msbist::circuit {

Netlist::Netlist() {
  static std::atomic<std::uint64_t> next{1};
  uid_ = next.fetch_add(1, std::memory_order_relaxed);
}

NodeId Netlist::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  index_.emplace(name, id);
  names_.push_back(name);
  return id;
}

NodeId Netlist::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = index_.find(name);
  if (it == index_.end()) throw std::out_of_range("Netlist: unknown node " + name);
  return it->second;
}

void Netlist::name_last(const std::string& n) {
  if (elements_.empty()) throw std::logic_error("Netlist::name_last: no elements");
  elements_.back()->set_name(n);
}

Element* Netlist::find(const std::string& n) const {
  for (const auto& el : elements_) {
    if (el->name() == n) return el.get();
  }
  return nullptr;
}

std::size_t Netlist::assign_unknowns() {
  std::size_t next = names_.size();
  for (auto& el : elements_) {
    if (el->branch_count() > 0) {
      el->set_branch_base(static_cast<int>(next));
      next += static_cast<std::size_t>(el->branch_count());
    }
  }
  return next;
}

std::size_t value_count(const Netlist& netlist) {
  std::size_t total = 0;
  for (const auto& el : netlist.elements()) total += el->value_count();
  return total;
}

void set_values(Netlist& netlist, std::span<const double> row) {
  if (row.size() != value_count(netlist)) {
    throw std::invalid_argument(
        "set_values: row has " + std::to_string(row.size()) +
        " values, the netlist " + std::to_string(value_count(netlist)) +
        " slots");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!std::isfinite(row[i])) {
      throw std::invalid_argument("set_values: slot " + std::to_string(i) +
                                  " is not finite");
    }
  }
  const double* next = row.data();
  for (auto& el : netlist.elements()) {
    const std::size_t n = el->value_count();
    if (n == 0) continue;
    el->set_values(next);
    next += n;
  }
}

}  // namespace msbist::circuit
