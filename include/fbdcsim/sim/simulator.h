// Discrete-event simulation engine.
//
// A single-threaded event loop executing actions in (time, seq) order:
// equal-time events fire in scheduling order (FIFO), which makes every run
// deterministic — a prerequisite for the reproducibility promises in
// DESIGN.md §6.
//
// Two engines share this contract (DESIGN.md §9):
//
//   - Engine::kBucketed (default): a two-level calendar scheduler. Events
//     within the near-future window land in a 1024-bucket time wheel
//     (4.096 us per bucket, ~4.2 ms window) and are sorted per bucket only
//     when the wheel reaches them; events beyond the window wait in an
//     overflow heap and migrate into the wheel as it rotates. Actions are
//     stored as InlineAction (no heap allocation for captures up to 56
//     bytes — every current hot-path capture).
//   - Engine::kReference: the pre-rewrite engine, verbatim — a single
//     std::priority_queue of std::function actions. It exists as the
//     differential baseline: tests/sim/engine_differential_* prove the
//     bucketed engine bit-identical to it on every workload preset, and
//     bench_runtime_scaling measures the bucketed engine's events/sec
//     against it.
//
// Both engines execute the exact same global (time, seq) order, so every
// simulation output is engine-independent.
#pragma once

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

namespace fbdcsim::sim {

using core::Duration;
using core::TimePoint;

class Simulator {
 public:
  using Action = InlineAction;

  enum class Engine : std::uint8_t {
    kBucketed,   // calendar wheel + overflow heap, InlineAction storage
    kReference,  // pre-rewrite binary heap of std::function (differential baseline)
  };

  Simulator() = default;
  explicit Simulator(Engine engine) : engine_{engine} {}

  [[nodiscard]] Engine engine() const { return engine_; }

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules a callable at absolute time `at` (must not be in the past).
  /// The reference engine stores it as std::function exactly as the
  /// pre-rewrite engine did; the bucketed engine stores it as InlineAction.
  /// Either way the schedule is counted as inline/heap by what InlineAction
  /// would do, so the two engines' telemetry stays bit-identical.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Action>>>
  void schedule_at(TimePoint at, F&& f) {
    if (at < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    count_schedule(Action::fits_inline<std::decay_t<F>>);
    if (engine_ == Engine::kReference) {
      if constexpr (std::is_copy_constructible_v<std::decay_t<F>>) {
        schedule_reference(at, std::function<void()>(std::forward<F>(f)));
      } else {
        // std::function requires copyable targets; box move-only callables.
        auto boxed = std::make_shared<std::decay_t<F>>(std::forward<F>(f));
        schedule_reference(at, [boxed] { (*boxed)(); });
      }
    } else {
      schedule_bucketed(at, Action{std::forward<F>(f)});
    }
  }

  /// Schedules an already type-erased action (hot paths that pre-build
  /// InlineActions, tests).
  void schedule_at(TimePoint at, Action action) {
    if (at < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    count_schedule(action.is_inline());
    if (engine_ == Engine::kReference) {
      auto boxed = std::make_shared<Action>(std::move(action));
      schedule_reference(at, [boxed] { (*boxed)(); });
    } else {
      schedule_bucketed(at, std::move(action));
    }
  }

  /// Schedules after a delay from now.
  template <typename F>
  void schedule_after(Duration delay, F&& f) {
    schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Runs events until the queue is empty or the horizon is passed. Events
  /// strictly after `horizon` remain queued; time stops at the horizon.
  void run_until(TimePoint horizon);

  /// Runs until the queue is empty.
  void run();

  /// Discards all pending events (the clock is unchanged). Safe to call
  /// from inside an executing event: the remaining queue is dropped and
  /// anything the current action schedules afterwards still runs.
  void clear();

  [[nodiscard]] std::size_t pending_events() const { return size_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  // ---- shared ----
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    Action action;
  };
  struct RefEvent {
    TimePoint at;
    std::uint64_t seq;
    std::function<void()> action;
  };
  template <typename E>
  struct Later {
    bool operator()(const E& a, const E& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Published (and zeroed) by RunMetricsScope as sim.events_inline/heap.
  void count_schedule(bool inline_path) {
    ++(inline_path ? inline_schedules_ : heap_schedules_);
  }

  // ---- bucketed engine ----
  static constexpr unsigned kBucketShiftBits = 12;  // 4096 ns per bucket
  static constexpr std::int64_t kWheelSize = 1024;  // ~4.2 ms window
  static constexpr std::int64_t kWheelMask = kWheelSize - 1;

  [[nodiscard]] static std::int64_t bucket_of(TimePoint at) {
    return at.count_nanos() >> kBucketShiftBits;  // sim time is never negative
  }

  struct Bucket {
    std::vector<Event> items;
    std::size_t pos{0};  // executed (moved-from) prefix of items
    bool dirty{false};   // items[pos..] not known sorted
  };

  class RunMetricsScope;  // run metrics, defined in simulator.cpp

  void schedule_bucketed(TimePoint at, Action action);
  void schedule_reference(TimePoint at, std::function<void()> action);
  void run_loop(TimePoint horizon, bool bounded);
  void run_loop_reference(TimePoint horizon, bool bounded);
  /// Moves overflow events that now fall inside the wheel window into it.
  void migrate_overflow();

  Engine engine_{Engine::kBucketed};
  TimePoint now_;
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t size_{0};
  std::int64_t inline_schedules_{0};
  std::int64_t heap_schedules_{0};

  std::vector<Bucket> wheel_{static_cast<std::size_t>(kWheelSize)};
  std::int64_t cursor_{0};  // absolute index of the bucket being drained
  bool draining_{false};    // inside run_loop, draining bucket cursor_
  /// Events scheduled into bucket cursor_ while it is being drained (kept
  /// out of the bucket vector so the in-progress sorted scan stays valid).
  std::priority_queue<Event, std::vector<Event>, Later<Event>> active_;
  /// Events beyond the wheel window, ordered by (time, seq).
  std::priority_queue<Event, std::vector<Event>, Later<Event>> overflow_;

  std::priority_queue<RefEvent, std::vector<RefEvent>, Later<RefEvent>> ref_queue_;
};

/// A repeating timer: invokes `tick` every `period` until cancelled or the
/// simulator stops. The callback receives the firing time.
///
/// Reentrancy contract: a tick may cancel() its own timer — or destroy the
/// PeriodicTimer outright — and the timer will not reschedule. The shared
/// State below is what makes destruction-during-tick safe: the in-flight
/// event owns a reference, so the executing callback never dangles even
/// after ~PeriodicTimer runs (the pre-rewrite implementation kept the
/// callback inside the timer object and destroyed it mid-invocation).
class PeriodicTimer {
 public:
  using Tick = std::function<void(TimePoint)>;

  PeriodicTimer(Simulator& sim, Duration period, Tick tick);
  ~PeriodicTimer() { cancel(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Idempotent; safe to call from inside the timer's own tick.
  void cancel() noexcept {
    if (state_ != nullptr) state_->alive = false;
  }

 private:
  struct State {
    Simulator* sim;
    Duration period;
    Tick tick;
    bool alive{true};
  };

  static void arm(const std::shared_ptr<State>& state, TimePoint at);

  std::shared_ptr<State> state_;
};

}  // namespace fbdcsim::sim
