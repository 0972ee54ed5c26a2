// The deterministic slot executor that the lot, lockstep-screen and
// fault-campaign engines share, and the thread count they default to.
// It is plain fan-out over an index space: each call starts its own
// worker threads, which claim slot indices from one atomic counter, and
// joins them before it returns. Determinism comes from each body writing
// into its pre-assigned slot, not from scheduling order.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace msbist::core {

/// std::thread::hardware_concurrency with a floor of 1 (the standard
/// allows it to return 0 when unknown): the engines' thread count when a
/// request leaves it at 0.
std::size_t default_thread_count();

/// Cooperative stop predicate of the slot executor, shared by every engine
/// that runs on it (lots, lockstep screens, fault campaigns). Called from
/// worker threads: it must be thread-safe and must not throw.
using StopFn = std::function<bool()>;

/// The deterministic slot executor the engines share: run body(i)
/// once for each slot i in [0, n). With threads <= 1 the slots run
/// inline, in order; otherwise min(threads, n) worker threads claim
/// slot indices from one atomic counter. Determinism is the body's part of
/// the contract: slot i writes only storage slot i owns, and the caller
/// aggregates in slot order after the call returns (every body has
/// finished by then).
///
/// `stop` (optional; must not throw) is polled before each claim: once
/// it returns true no further slot starts, and slots already running
/// finish. A body that throws stops all claiming; once the workers have
/// returned, the exception of the lowest throwing slot index is
/// rethrown.
void for_each_slot(std::size_t n, std::size_t threads, const StopFn& stop,
                   const std::function<void(std::size_t)>& body);

/// Resume for an engine on the slot executor: copy each restored unit of
/// `resume->completed` (slot index -> result) into its slot before the
/// executor runs, and return the mask of restored slots for the body to
/// skip. Restored units are thus in the report even when a stop leaves
/// their slots unclaimed. Keys past the slot count (a resubmitted job
/// shrank) are ignored, not an error.
template <typename Resume, typename Slot>
std::vector<char> splice_restored(const Resume* resume,
                                  std::vector<Slot>& slots) {
  std::vector<char> restored(slots.size(), 0);
  if (resume == nullptr) return restored;
  for (const auto& [i, done] : resume->completed) {
    if (i >= slots.size()) continue;
    slots[i] = done;
    restored[i] = 1;
  }
  return restored;
}

}  // namespace msbist::core
