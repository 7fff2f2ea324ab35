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
//     overflow heap and migrate into the wheel as it rotates. The queues
//     hold 24-byte (at, seq, slot) keys only: each action is moved once
//     into a slab slot (an InlineAction — no heap allocation for captures
//     up to 56 bytes, every current hot-path capture) and once out of it,
//     right before it runs, so bucket sorts, heap sifts and queue growth
//     never relocate the callable itself.
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
    kBucketed,   // calendar wheel + overflow heap of keys, InlineAction slab
    kReference,  // pre-rewrite binary heap of std::function (differential baseline)
  };

  Simulator() = default;
  explicit Simulator(Engine engine) : engine_{engine} {}

  [[nodiscard]] Engine engine() const { return engine_; }

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules a callable at absolute time `at` (must not be in the past;
  /// an empty std::function or null function pointer is rejected). The
  /// reference engine stores it as std::function exactly as the
  /// pre-rewrite engine did; the bucketed engine stores it as an
  /// InlineAction in a slab slot. Either way the schedule is counted as
  /// inline/heap by what InlineAction would do, so the two engines'
  /// telemetry stays bit-identical.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Action>>>
  void schedule_at(TimePoint at, F&& f) {
    using Fn = std::decay_t<F>;
    if (at < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    if constexpr (std::is_pointer_v<Fn> || std::is_same_v<Fn, std::function<void()>>) {
      if (!f) throw std::invalid_argument{"Simulator: empty action"};
    }
    count_schedule(Action::fits_inline<Fn>);
    if (engine_ == Engine::kReference) {
      if constexpr (std::is_copy_constructible_v<Fn>) {
        schedule_reference(at, std::function<void()>(std::forward<F>(f)));
      } else {
        // std::function requires copyable targets; box move-only callables.
        auto boxed = std::make_shared<Fn>(std::forward<F>(f));
        schedule_reference(at, [boxed] { (*boxed)(); });
      }
    } else {
      schedule_bucketed(at, Action{std::forward<F>(f)});
    }
  }

  /// Schedules an already type-erased action (hot paths that pre-build
  /// InlineActions, tests). An empty action is rejected.
  void schedule_at(TimePoint at, Action action) {
    if (at < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    if (!action) throw std::invalid_argument{"Simulator: empty action"};
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
  /// Action slots the bucketed engine's slab holds, live and free: the
  /// peak of pending_events() since the last clear() (0 on the reference
  /// engine). A slot leak shows up as growth past that peak.
  [[nodiscard]] std::size_t action_slots() const { return slab_.size(); }

 private:
  // ---- shared ----
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

  /// What the bucketed engine's queues hold: the execution order (at,
  /// seq) and the slab slot of the action. 24 bytes, trivially copyable.
  struct Key {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Bucket {
    std::vector<Key> items;
    std::size_t pos{0};  // executed prefix of items
    bool dirty{false};   // items[pos..] not known sorted
  };

  class RunMetricsScope;  // run metrics, defined in simulator.cpp

  /// Parks the action in a free slab slot (or a new one) and queues its key.
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
  std::priority_queue<Key, std::vector<Key>, Later<Key>> active_;
  /// Events beyond the wheel window, ordered by (time, seq).
  std::priority_queue<Key, std::vector<Key>, Later<Key>> overflow_;
  /// The queued actions, indexed by Key::slot; free_slots_ lists the empty
  /// ones. An action leaves its slot just before it runs.
  std::vector<Action> slab_;
  std::vector<std::uint32_t> free_slots_;

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
/// An empty tick is rejected at construction.
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
