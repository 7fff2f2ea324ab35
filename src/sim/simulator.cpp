#include "fbdcsim/sim/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fbdcsim/telemetry/telemetry.h"

#if FBDCSIM_TELEMETRY_ENABLED
#include <chrono>
#endif

namespace fbdcsim::sim {

#if FBDCSIM_TELEMETRY_ENABLED
/// Accounts one run()/run_until() call: events executed (deterministic)
/// and the wall time the loop took. sim.events / (sim.run_wall_us / 1e6)
/// is the event loop's aggregate throughput. Also publishes, and zeroes,
/// the schedules counted since the previous call.
class Simulator::RunMetricsScope {
 public:
  explicit RunMetricsScope(Simulator& sim) : sim_{&sim}, start_events_{sim.executed_} {
    if (!telemetry::Telemetry::enabled()) return;
    armed_ = true;
    start_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  }

  ~RunMetricsScope() {
    telemetry::publish_counts({{"sim.events_inline", std::exchange(sim_->inline_schedules_, 0)},
                               {"sim.events_heap", std::exchange(sim_->heap_schedules_, 0)}});
    if (!armed_) return;
    FBDCSIM_T_COUNTER(events, "sim.events", Sim);
    FBDCSIM_T_COUNTER(runs, "sim.runs", Sim);
    FBDCSIM_T_COUNTER(wall, "sim.run_wall_us", Wall);
    const std::int64_t now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now().time_since_epoch())
                                    .count();
    FBDCSIM_T_ADD(events, static_cast<std::int64_t>(sim_->executed_ - start_events_));
    FBDCSIM_T_ADD(runs, 1);
    FBDCSIM_T_ADD(wall, now_us - start_us_);
  }

 private:
  Simulator* sim_;
  std::uint64_t start_events_;
  bool armed_{false};
  std::int64_t start_us_{0};
};
#endif

/// run_loop's one epilogue, on the normal and the throwing exit alike:
/// leaves drain mode and folds keys still in the active heap (a horizon
/// stop, or an action that threw, can leave some) back into the cursor
/// bucket, so active_ is empty whenever no run is in progress.
class Simulator::DrainScope {
 public:
  explicit DrainScope(Simulator& sim) : sim_{&sim} { sim.draining_ = true; }
  DrainScope(const DrainScope&) = delete;
  DrainScope& operator=(const DrainScope&) = delete;

  ~DrainScope() {
    sim_->draining_ = false;
    if (sim_->active_.empty()) return;
    Bucket& b = sim_->wheel_[sim_->cursor_ & kWheelMask];
    while (!sim_->active_.empty()) {
      b.items.push_back(sim_->active_.top());
      sim_->active_.pop();
    }
    b.dirty = true;
  }

 private:
  Simulator* sim_;
};

void Simulator::enqueue(TimePoint at, Action&& action) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(action);
  }
  const std::int64_t idx = bucket_of(at);
  const Key key{at, next_seq_++, slot};
  ++size_;
  if (draining_ && idx <= cursor_) {
    // Scheduled (from an executing action) into the bucket being drained:
    // the heap keeps the in-progress sorted scan valid without re-sorting
    // the bucket vector per schedule.
    active_.push(key);
    return;
  }
  if (idx >= cursor_ + kWheelSize) {
    overflow_.push(key);
    return;
  }
  // idx < cursor_ happens when the cursor passed the event's natural bucket
  // but `at` is still >= now() (e.g. after a horizon stop mid-bucket); the
  // event is folded into the current bucket and the per-bucket (time, seq)
  // sort puts it first.
  Bucket& b = wheel_[(idx <= cursor_ ? cursor_ : idx) & kWheelMask];
  if (b.pos == b.items.size() && b.pos != 0) {
    // Everything in the bucket already executed; drop the stale prefix.
    b.items.clear();
    b.pos = 0;
    b.dirty = false;
  }
  if (!b.dirty && !b.items.empty() && at < b.items.back().at) b.dirty = true;
  b.items.push_back(key);
}

void Simulator::migrate_overflow() {
  // Overflow pops in (time, seq) order and the bucket index is monotone in
  // time, so the now-in-window events are exactly the heap's top prefix.
  const std::int64_t limit = cursor_ + kWheelSize;
  while (!overflow_.empty() && bucket_of(overflow_.top().at) < limit) {
    const Key key = overflow_.top();
    overflow_.pop();
    Bucket& b = wheel_[bucket_of(key.at) & kWheelMask];
    if (!b.dirty && !b.items.empty() && key.at < b.items.back().at) b.dirty = true;
    b.items.push_back(key);
  }
}

void Simulator::run_loop(TimePoint horizon, bool bounded) {
  // Every iteration re-derives its state from the member fields, so an
  // action calling clear() (or scheduling more work) is always observed.
  const DrainScope drain{*this};
  for (;;) {
    if (size_ == 0) break;

    Bucket& b = wheel_[cursor_ & kWheelMask];
    if (b.dirty) {
      b.items.erase(b.items.begin(),
                    b.items.begin() + static_cast<std::ptrdiff_t>(b.pos));
      b.pos = 0;
      std::sort(b.items.begin(), b.items.end());
      b.dirty = false;
    }

    const bool bucket_has = b.pos < b.items.size();
    if (!bucket_has && active_.empty()) {
      b.items.clear();
      b.pos = 0;
      if (size_ == overflow_.size()) {
        // Wheel empty: jump straight to the earliest overflow event.
        if (bounded && overflow_.top().at > horizon) break;
        cursor_ = bucket_of(overflow_.top().at);
      } else {
        ++cursor_;
      }
      migrate_overflow();
      continue;
    }

    // Next event = min of the bucket front and the active heap.
    bool from_active = !bucket_has;
    if (bucket_has && !active_.empty()) {
      from_active = active_.top() < b.items[b.pos];
    }
    const Key key = from_active ? active_.top() : b.items[b.pos];
    if (bounded && key.at > horizon) break;

    if (from_active) {
      active_.pop();
    } else {
      ++b.pos;
    }
    // The action leaves the slab before it runs and its slot is free
    // again, so the action may clear() the simulator or grow the slab.
    Action action = std::move(slab_[key.slot]);
    free_slots_.push_back(key.slot);
    --size_;
    now_ = key.at;
    ++executed_;
    action();
  }
}

void Simulator::run_until(TimePoint horizon) {
#if FBDCSIM_TELEMETRY_ENABLED
  RunMetricsScope metrics{*this};
#endif
  run_loop(horizon, /*bounded=*/true);
  if (now_ < horizon) now_ = horizon;
}

void Simulator::run() {
#if FBDCSIM_TELEMETRY_ENABLED
  RunMetricsScope metrics{*this};
#endif
  run_loop(TimePoint{}, /*bounded=*/false);
}

void Simulator::clear() {
  for (Bucket& b : wheel_) {
    b.items.clear();
    b.pos = 0;
    b.dirty = false;
  }
  while (!active_.empty()) active_.pop();
  while (!overflow_.empty()) overflow_.pop();
  slab_.clear();
  free_slots_.clear();
  size_ = 0;
}

PeriodicTimer::PeriodicTimer(Simulator& sim, Duration period, Tick tick)
    : state_{std::make_shared<State>(State{&sim, period, std::move(tick), true})} {
  if (period <= Duration{}) throw std::invalid_argument{"PeriodicTimer: period must be positive"};
  if (!state_->tick) throw std::invalid_argument{"PeriodicTimer: empty tick"};
  arm(state_, sim.now() + period);
}

void PeriodicTimer::arm(const std::shared_ptr<State>& state, TimePoint at) {
  // The event owns a reference to the state, so destroying the timer from
  // inside its own tick leaves the executing callback valid.
  state->sim->schedule_at(at, [st = state, at] {
    if (!st->alive) return;
    st->tick(at);
    if (st->alive) arm(st, at + st->period);
  });
}

}  // namespace fbdcsim::sim
