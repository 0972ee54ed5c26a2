#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace msbist::core {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void for_each_slot(std::size_t n, std::size_t threads, const StopFn& stop,
                   const std::function<void(std::size_t)>& body) {
  const auto stopped = [&stop] { return stop && stop(); };
  if (threads <= 1 || n == 0) {
    for (std::size_t i = 0; i < n && !stopped(); ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::size_t error_slot = n;  // guarded by error_mu
  std::exception_ptr error;    // guarded by error_mu
  const auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed) && !stopped()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_slot) {
          error_slot = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> workers(std::min(threads, n));
  for (std::thread& t : workers) t = std::thread(worker);
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace msbist::core
