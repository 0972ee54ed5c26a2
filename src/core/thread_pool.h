// A small fixed-size thread pool (deliberately work-stealing-free): jobs
// are taken from one FIFO queue by `thread_count` workers. This is the
// substrate for for_each_slot, the executor the lot and fault-campaign
// engines share, which wants plain fan-out over an index space —
// determinism there comes from writing results into pre-assigned slots,
// not from scheduling order, so a simple shared queue is all the
// machinery needed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace msbist::core {

class ThreadPool {
 public:
  /// Spins up `threads` workers (>= 1, else std::invalid_argument).
  explicit ThreadPool(std::size_t threads);
  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. Jobs must not throw (wrap fallible work yourself —
  /// the campaign engine does); a throwing job terminates the process.
  void submit(std::function<void()> job);

  /// Block until the queue is empty and no job is running. The pool is
  /// reusable afterwards; submissions from other threads during the wait
  /// extend it.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to return 0 when unknown).
  static std::size_t default_thread_count();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< signalled on submit / shutdown
  std::condition_variable idle_cv_;  ///< signalled when a job finishes
  std::size_t in_flight_ = 0;        ///< jobs currently executing
  bool stop_ = false;
};

/// Cooperative stop predicate of the slot executor, shared by every engine
/// that runs on it (lots, lockstep screens, fault campaigns). Called from
/// worker threads: it must be thread-safe and must not throw.
using StopFn = std::function<bool()>;

/// The deterministic slot executor the engines share: run body(i)
/// once for each slot i in [0, n). With threads <= 1 the slots run
/// inline, in order; otherwise min(threads, n) pooled workers claim slot
/// indices from one atomic counter. Determinism is the body's part of
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
