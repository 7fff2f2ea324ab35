#include "fbdcsim/runtime/thread_pool.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "fbdcsim/core/env.h"
#include "fbdcsim/telemetry/telemetry.h"

#if FBDCSIM_TELEMETRY_ENABLED
#include <chrono>
#endif

namespace fbdcsim::runtime {

#if FBDCSIM_TELEMETRY_ENABLED
namespace {
std::int64_t wall_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace
#endif

int env_thread_count() {
  if (const auto n = core::read_env<std::int64_t>(
          "FBDCSIM_THREADS", core::parse_int_in<1, 4096>, "hardware concurrency")) {
    return static_cast<int>(*n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers) {
  const int n = std::max(1, workers);
  FBDCSIM_T_GAUGE(workers_gauge, "runtime.pool.workers", Wall);
  FBDCSIM_T_MAX(workers_gauge, n);
  // Enough backlog that posters rarely stall, small enough that a runaway
  // producer is throttled rather than buffered without bound.
  max_queue_ = std::max<std::size_t>(static_cast<std::size_t>(n) * 4, 64);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk{mu_};
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::post(std::function<void()> task) {
  QueuedTask queued{std::move(task), 0};
#if FBDCSIM_TELEMETRY_ENABLED
  FBDCSIM_T_COUNTER(posted, "runtime.pool.tasks_posted", Sim);
  FBDCSIM_T_GAUGE(queue_peak, "runtime.pool.queue_peak", Wall);
  if (telemetry::Telemetry::enabled()) queued.enqueue_us = wall_us();
#endif
  {
    std::unique_lock<std::mutex> lk{mu_};
    space_ready_.wait(lk, [this] { return queue_.size() < max_queue_ || stopping_; });
    if (stopping_) return;  // racing a destructor; drop the task
    queue_.push_back(std::move(queued));
#if FBDCSIM_TELEMETRY_ENABLED
    FBDCSIM_T_ADD(posted, 1);
    FBDCSIM_T_MAX(queue_peak, static_cast<std::int64_t>(queue_.size()));
#endif
  }
  task_ready_.notify_one();
}

void ThreadPool::worker_loop() {
#if FBDCSIM_TELEMETRY_ENABLED
  FBDCSIM_T_COUNTER(completed, "runtime.pool.tasks_completed", Sim);
  FBDCSIM_T_HISTOGRAM(wait_hist, "runtime.pool.task_wait_us", Wall);
  FBDCSIM_T_HISTOGRAM(run_hist, "runtime.pool.task_run_us", Wall);
  std::int64_t busy_us = 0;
#endif
  while (true) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lk{mu_};
      task_ready_.wait(lk, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) break;  // stopping, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    space_ready_.notify_one();
#if FBDCSIM_TELEMETRY_ENABLED
    std::int64_t started_us = 0;
    if (telemetry::Telemetry::enabled()) {
      started_us = wall_us();
      if (task.enqueue_us > 0) FBDCSIM_T_OBSERVE(wait_hist, started_us - task.enqueue_us);
    }
#endif
    task.fn();
#if FBDCSIM_TELEMETRY_ENABLED
    if (started_us > 0) {
      const std::int64_t ran_us = wall_us() - started_us;
      FBDCSIM_T_OBSERVE(run_hist, ran_us);
      FBDCSIM_T_ADD(completed, 1);
      busy_us += ran_us;
    }
#endif
  }
#if FBDCSIM_TELEMETRY_ENABLED
  // Per-worker busy time, recorded when the pool shuts down; the spread
  // across workers is the pool's load balance.
  FBDCSIM_T_HISTOGRAM(busy_hist, "runtime.pool.worker_busy_us", Wall);
  FBDCSIM_T_OBSERVE(busy_hist, busy_us);
#endif
}

void ThreadPool::parallel_for_each(std::size_t count,
                                   const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  struct BatchState {
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
    std::size_t error_index;
  } state;
  state.remaining = count;
  state.error_index = std::numeric_limits<std::size_t>::max();

  for (std::size_t i = 0; i < count; ++i) {
    post([i, &fn, &state] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk{state.mu};
        if (i < state.error_index) {
          state.error = std::current_exception();
          state.error_index = i;
        }
      }
      // Notify while holding the lock: the waiting caller destroys `state`
      // as soon as it reacquires the mutex, so signalling after unlock
      // would race the condition variable's destruction.
      std::lock_guard<std::mutex> lk{state.mu};
      if (--state.remaining == 0) state.done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lk{state.mu};
  state.done.wait(lk, [&state] { return state.remaining == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace fbdcsim::runtime
