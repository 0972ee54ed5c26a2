// Static fault-universe collapsing.
//
// A fault campaign solves one transient per fault; much of that work is
// provably redundant before the solver ever runs. This module partitions
// a FaultSpec universe into structural equivalence classes over the clean
// netlist's topology and marks faults that cannot reach any BIST tap as
// statically undetectable, so the campaign engines (see
// CampaignOptions::collapse) simulate one representative per class and
// expand its verdict to every member.
//
// Exact rules — members of a class produce identical measurements at the
// taps, so expansion is sound for any measurement-based test function:
//
//   * canonical dedup      — two faults whose injected components land on
//                            the same vertices at the same levels are the
//                            same mutation of the netlist; a bridge from a
//                            node to itself is a no-op.
//   * rail absorption      — a clamp on a supply-pinned vertex cannot move
//                            it (the ideal source wins); a bridge between
//                            two pinned vertices changes no node voltage.
//   * unobservable elision — a clamp (or a whole bridge) whose every
//                            perturbation site has no SignalGraph path to
//                            any tap cannot change what the taps see.
//   * symmetric folding    — a verified two-node transposition that maps
//                            the element multiset onto itself (and fixes
//                            the taps) is a netlist automorphism; faults
//                            related by it are indistinguishable.
//
// A fault whose components all elide is statically undetectable: it is
// never simulated and expands to {undetected, score 0} — by construction
// the exact result any class-consistent test would report.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/testability.h"
#include "faults/campaign.h"
#include "faults/fault.h"

namespace msbist::faults {

/// Why a fault sits where it does in the collapsed universe.
enum class CollapseRule : std::uint8_t {
  kRepresentative,  ///< simulated on behalf of its class
  kDedup,           ///< same canonical footprint as its representative
  kSymmetry,        ///< folded by a verified netlist automorphism
  kUndetectable,    ///< no component can influence any tap; never simulated
};

const char* to_string(CollapseRule rule);

/// Pure index algebra mapping a universe of size() items onto the subset
/// that must actually run. Usable on its own (the production spot check
/// groups its config-fault menu with from_signatures) or via collapse().
class CollapseMap {
 public:
  CollapseMap() = default;

  /// Group items with equal signatures; the first occurrence (in index
  /// order) represents the class. Items flagged undetectable join no
  /// class and are excluded from representatives(). `rules` may be empty
  /// (defaults are derived) or give a per-index CollapseRule.
  static CollapseMap from_signatures(const std::vector<std::string>& signatures,
                                     const std::vector<bool>& undetectable,
                                     std::vector<CollapseRule> rules = {});

  std::size_t size() const { return rep_.size(); }
  std::size_t representative_of(std::size_t i) const { return rep_[i]; }
  bool is_representative(std::size_t i) const {
    return !undetectable_[i] && rep_[i] == i;
  }
  bool is_undetectable(std::size_t i) const { return undetectable_[i]; }
  CollapseRule rule(std::size_t i) const { return rule_[i]; }

  /// Ascending indices of the items to simulate.
  const std::vector<std::size_t>& representatives() const { return reps_; }
  std::vector<std::size_t> members_of(std::size_t rep) const;

  std::size_t simulated_count() const { return reps_.size(); }
  /// Circuits the collapse avoids solving (duplicates + undetectable).
  std::size_t solves_saved() const { return size() - simulated_count(); }
  std::size_t undetectable_count() const;

 private:
  std::vector<std::size_t> rep_;
  std::vector<bool> undetectable_;
  std::vector<CollapseRule> rule_;
  std::vector<std::size_t> reps_;
};

struct CollapseOptions {
  /// BIST observation taps (netlist node names). Empty disables the
  /// observability-based rules (elision / undetectable marking); the
  /// purely structural rules still apply.
  std::vector<std::string> taps;
};

/// A universe plus its collapse analysis; feed to CampaignOptions::collapse.
struct CollapsedUniverse {
  std::vector<FaultSpec> universe;  ///< original order, verbatim
  CollapseMap map;
  std::vector<std::string> signatures;  ///< canonical footprint per fault
  std::vector<std::string> reasons;     ///< human-readable per-fault note

  /// Expand per-representative results (in representatives() order) to a
  /// full per-fault result vector: members copy their representative's
  /// verdict with their own FaultSpec and zero elapsed time; statically
  /// undetectable faults synthesize {undetected, score 0, empty detail}.
  std::vector<FaultResult> expand(const std::vector<FaultResult>& rep_results) const;

  double collapse_ratio() const {
    return universe.empty() ? 0.0
                            : static_cast<double>(map.solves_saved()) /
                                  static_cast<double>(universe.size());
  }

  /// Unified report API: pass means no statically undetectable faults
  /// (an undetectable fault is a design finding, not a test escape).
  core::Outcome outcome() const;
  void to_json(core::JsonWriter& w) const;
};

/// Analyze a universe against the clean netlist it will be injected into.
/// Throws std::invalid_argument when a fault or tap names a node the
/// netlist does not have.
CollapsedUniverse collapse(const std::vector<FaultSpec>& universe,
                           const circuit::Netlist& netlist, const NodeMap& map,
                           const CollapseOptions& opts = {});

}  // namespace msbist::faults
