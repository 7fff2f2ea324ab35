// The reference event scheduler: the pre-rewrite sim::Simulator engine,
// verbatim — a single std::priority_queue of std::function actions in
// (time, seq) order. Production code runs sim::Simulator's calendar
// scheduler only; this header-only copy is the oracle it is checked
// against. engine_property_test and simulator_test run the same schedules
// on both and compare, and bench_runtime_scaling's storm measures the
// production engine's events/s against it. The rack-level goldens in
// tests/golden/engine_reference.golden.txt were recorded from this engine
// while sim::Simulator could still select it.
//
// The surface mirrors sim::Simulator's (schedule_at/schedule_after, now,
// run/run_until, clear, pending/executed_events), including its
// rejections: a past time, an empty std::function, InlineAction or null
// function pointer throws std::invalid_argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "fbdcsim/core/time.h"
#include "fbdcsim/sim/inline_action.h"

namespace fbdcsim::tests {

class ReferenceScheduler {
 public:
  using Duration = core::Duration;
  using TimePoint = core::TimePoint;

  [[nodiscard]] TimePoint now() const { return now_; }

  template <typename F>
  void schedule_at(TimePoint at, F&& f) {
    using Fn = std::decay_t<F>;
    if (at < now_) throw std::invalid_argument{"ReferenceScheduler: cannot schedule in the past"};
    if constexpr (std::is_pointer_v<Fn> || std::is_same_v<Fn, std::function<void()>> ||
                  std::is_same_v<Fn, sim::InlineAction>) {
      if (!f) throw std::invalid_argument{"ReferenceScheduler: empty action"};
    }
    if constexpr (std::is_copy_constructible_v<Fn>) {
      push(at, std::function<void()>(std::forward<F>(f)));
    } else {
      // std::function requires copyable targets; box move-only callables.
      auto boxed = std::make_shared<Fn>(std::forward<F>(f));
      push(at, [boxed] { (*boxed)(); });
    }
  }

  template <typename F>
  void schedule_after(Duration delay, F&& f) {
    schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Runs events with time <= horizon; the clock then stops at horizon.
  void run_until(TimePoint horizon) {
    run_loop(horizon, /*bounded=*/true);
    if (now_ < horizon) now_ = horizon;
  }

  void run() { run_loop(TimePoint{}, /*bounded=*/false); }

  /// Drops every pending event; safe from inside an executing action.
  void clear() {
    while (!queue_.empty()) queue_.pop();
  }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void push(TimePoint at, std::function<void()> action) {
    queue_.push(Event{at, next_seq_++, std::move(action)});
  }

  void run_loop(TimePoint horizon, bool bounded) {
    while (!queue_.empty() && (!bounded || queue_.top().at <= horizon)) {
      // priority_queue::top() is const; moving the action out requires a
      // cast. The pop immediately after makes this safe.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.at;
      ++executed_;
      ev.action();
    }
  }

  TimePoint now_;
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace fbdcsim::tests
