#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>

namespace msbist::core {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: thread count must be >= 1");
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      throw std::logic_error("ThreadPool: submit after shutdown");
    }
    queue_.push(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    idle_cv_.notify_all();
  }
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
  const std::size_t workers = std::min(threads, n);
  {
    ThreadPool pool(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.submit(worker);
    pool.wait_idle();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace msbist::core
