#include "fbdcsim/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "../support/reference_scheduler.h"

namespace fbdcsim::sim {
namespace {

using tests::ReferenceScheduler;

/// Runs `body` once per scheduler type — the production engine, then the
/// reference oracle — passing std::type_identity<Sched>; both must meet the
/// same expectations.
template <typename Body>
void on_both_schedulers(Body body) {
  {
    SCOPED_TRACE("Simulator");
    body(std::type_identity<Simulator>{});
  }
  {
    SCOPED_TRACE("ReferenceScheduler");
    body(std::type_identity<ReferenceScheduler>{});
  }
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(3.0));
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_seconds(1.0);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint fired;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
    sim.schedule_after(Duration::seconds(2), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, TimePoint::from_seconds(3.0));
}

TEST(SimulatorTest, CannotScheduleInPast) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_seconds(1.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::from_seconds(0.5), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_seconds(5.0), [&] { ++fired; });
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(2.0));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(TimePoint::from_seconds(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { fired = true; });
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ClearDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.clear();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, ExecutedEventsCount) {
  Simulator sim;
  for (int i = 0; i < 17; ++i) sim.schedule_at(TimePoint::from_seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 17u);
}

TEST(SimulatorTest, CascadingEvents) {
  // An event chain: each event schedules the next until a bound.
  Simulator sim;
  int count = 0;
  std::function<void()> step = [&] {
    if (++count < 100) sim.schedule_after(Duration::millis(1), step);
  };
  sim.schedule_at(TimePoint::zero(), step);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), TimePoint::from_nanos(99'000'000));
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint t) { fires.push_back(t); }};
  sim.run_until(TimePoint::from_nanos(35'000'000));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], TimePoint::from_nanos(10'000'000));
  EXPECT_EQ(fires[2], TimePoint::from_nanos(30'000'000));
}

TEST(PeriodicTimerTest, CancelStopsFiring) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint) { ++fires; }};
  sim.schedule_at(TimePoint::from_nanos(25'000'000), [&] { timer.cancel(); });
  sim.run_until(TimePoint::from_nanos(100'000'000));
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimerTest, RejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, Duration{}, [](TimePoint) {}), std::invalid_argument);
}

TEST(PeriodicTimerTest, RejectsEmptyTick) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, Duration::millis(10), PeriodicTimer::Tick{}),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicTimerTest, TickCancellingOwnTimerDoesNotReschedule) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint) {
    ++fires;
    timer.cancel();  // re-entrant: cancel from inside our own tick
  }};
  sim.run_until(TimePoint::from_nanos(100'000'000));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicTimerTest, DestroyingTimerInsideOwnTickIsSafe) {
  // The pre-rewrite implementation kept the tick callback inside the timer
  // object; destroying the timer mid-tick destroyed the executing closure.
  Simulator sim;
  int fires = 0;
  PeriodicTimer* timer = nullptr;
  timer = new PeriodicTimer{sim, Duration::millis(10), [&](TimePoint) {
    ++fires;
    delete timer;  // destroys the PeriodicTimer while its tick runs
    timer = nullptr;
  }};
  sim.run_until(TimePoint::from_nanos(100'000'000));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(timer, nullptr);
}

TEST(PeriodicTimerTest, SimulatorClearDuringTickIsSafe) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint) {
    if (++fires == 3) sim.clear();
  }};
  sim.run_until(TimePoint::from_nanos(200'000'000));
  // clear() dropped the pending re-arm event, but the tick itself re-arms
  // after returning; cancel to stop the chain and drain.
  EXPECT_GE(fires, 3);
  timer.cancel();
  sim.clear();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ClearInsideActionDropsQueueButKeepsNewSchedules) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Sched sim;
    std::vector<int> order;
    sim.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
    sim.schedule_at(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
    sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
      order.push_back(1);
      sim.clear();  // drops the t=2 and t=3 events
      sim.schedule_after(Duration::seconds(4), [&] { order.push_back(5); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 5}));
    EXPECT_EQ(sim.now(), TimePoint::from_seconds(5.0));
  });
}

TEST(SimulatorTest, ReferenceEngineMatchesOriginalSemantics) {
  // The oracle itself (tests/support/reference_scheduler.h).
  ReferenceScheduler sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(TimePoint::from_seconds(1.5));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, EventsBeyondWheelWindowFireInOrder) {
  // The wheel covers ~4.2 ms; these events start in the overflow heap and
  // must migrate into the wheel as the cursor advances.
  Simulator sim;
  std::vector<std::int64_t> fired;
  for (const std::int64_t ms : {5'000, 1, 900, 40, 7, 12'000, 300}) {
    sim.schedule_at(TimePoint::from_nanos(ms * 1'000'000),
                    [&fired, ms] { fired.push_back(ms); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1, 7, 40, 300, 900, 5'000, 12'000}));
}

TEST(SimulatorTest, EqualTimeFifoAcrossBucketBoundary) {
  // Events exactly on a bucket edge (4096-ns multiples) keep FIFO order.
  Simulator sim;
  std::vector<int> order;
  const TimePoint edge = TimePoint::from_nanos(4096 * 7);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(edge, [&order, i] { order.push_back(i); });
  }
  sim.schedule_at(TimePoint::from_nanos(4096 * 7 - 1), [&order] { order.push_back(-1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulatorTest, ScheduleIntoPartiallyDrainedBucketAfterHorizonStop) {
  // Stop mid-bucket, then schedule an event into the same bucket earlier
  // than the still-pending one: the new event must fire first.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_nanos(100), [&] { order.push_back(0); });
  sim.schedule_at(TimePoint::from_nanos(3'000), [&] { order.push_back(2); });
  sim.run_until(TimePoint::from_nanos(1'000));  // mid-bucket: t=3000 pending
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.schedule_at(TimePoint::from_nanos(2'000), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, ActionSchedulingAtCurrentTimeRunsThisDrain) {
  // A chain of same-time schedules from inside actions (the active-heap
  // path) drains fully before time advances.
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) sim.schedule_at(sim.now(), recurse);
  };
  sim.schedule_at(TimePoint::from_nanos(5'000), recurse);
  sim.schedule_at(TimePoint::from_nanos(5'001), [&] { EXPECT_EQ(depth, 50); });
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), TimePoint::from_nanos(5'001));
}

TEST(SimulatorTest, LongIdleGapsJumpNotScan) {
  // Day-scale gaps between events: the cursor must jump (via the overflow
  // heap) rather than scan ~10^10 empty buckets. Completes instantly iff
  // the jump works.
  Simulator sim;
  int fired = 0;
  TimePoint t = TimePoint::zero();
  for (int i = 0; i < 20; ++i) {
    t += Duration::hours(1);
    sim.schedule_at(t, [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(sim.now(), TimePoint::zero() + Duration::hours(20));
}

TEST(SimulatorTest, PendingEventsTracksAllTiers) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_nanos(10), [] {});           // wheel
  sim.schedule_at(TimePoint::from_nanos(100'000), [] {});      // wheel, later bucket
  sim.schedule_at(TimePoint::from_seconds(10.0), [] {});       // overflow
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_until(TimePoint::from_nanos(50));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimulatorTest, MoveOnlyCallablesWorkOnBothEngines) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Sched sim;
    auto payload = std::make_unique<int>(17);
    int seen = 0;
    sim.schedule_at(TimePoint::from_nanos(5),
                    [p = std::move(payload), &seen] { seen = *p; });
    sim.run();
    EXPECT_EQ(seen, 17);
  });
}

TEST(SimulatorTest, RejectsEmptyActionsWhenScheduled) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Sched sim;
    const TimePoint t = TimePoint::from_nanos(10);
    EXPECT_THROW(sim.schedule_at(t, InlineAction{}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_at(t, std::function<void()>{}), std::invalid_argument);
    void (*null_fn)() = nullptr;
    EXPECT_THROW(sim.schedule_after(Duration::nanos(5), null_fn), std::invalid_argument);
    EXPECT_EQ(sim.pending_events(), 0u);
    // Nothing was queued, so the run is empty rather than a crash.
    bool fired = false;
    sim.schedule_at(t, [&fired] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.executed_events(), 1u);
  });
}

/// Records, per action id, how often it ran and how often its capture was
/// destroyed. Moved-from captures do not count, so every scheduled action
/// must end at exactly one destruction however the engine stores it.
struct Lifetimes {
  std::vector<int> ran;
  std::vector<int> destroyed;

  class Probe {
   public:
    Probe(Lifetimes* l, std::size_t id) : owner_{l}, id_{id} {}
    Probe(Probe&& other) noexcept
        : owner_{std::exchange(other.owner_, nullptr)}, id_{other.id_} {}
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;
    Probe& operator=(Probe&&) = delete;
    ~Probe() {
      if (owner_ != nullptr) ++owner_->destroyed[id_];
    }
    void ran() const { ++owner_->ran[id_]; }

   private:
    Lifetimes* owner_;
    std::size_t id_;
  };

  /// A new action id whose action runs `body` after counting the run.
  template <typename Body>
  auto action(Body body) {
    ran.push_back(0);
    destroyed.push_back(0);
    return [probe = Probe{this, ran.size() - 1}, body]() mutable {
      probe.ran();
      body();
    };
  }
  auto action() {
    return action([] {});
  }
};

TEST(SimulatorLifetimeTest, ActionThatRunsIsDestroyedOnce) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Lifetimes life;
    Sched sim;
    sim.schedule_at(TimePoint::from_nanos(5'000), life.action());       // wheel
    sim.schedule_at(TimePoint::from_nanos(5'000), life.action());       // equal time
    sim.schedule_at(TimePoint::from_nanos(2'000), life.action());       // out of order
    sim.schedule_at(TimePoint::from_seconds(1.0), life.action());       // overflow
    sim.schedule_at(TimePoint::from_nanos(1'000), life.action([&] {     // active heap
      sim.schedule_at(sim.now(), life.action());
    }));
    sim.run();
    EXPECT_EQ(life.ran, std::vector<int>(6, 1));
    EXPECT_EQ(life.destroyed, std::vector<int>(6, 1));
  });
}

TEST(SimulatorLifetimeTest, ClearDestroysDroppedActionsOnce) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Lifetimes life;
    Sched sim;
    sim.schedule_at(TimePoint::from_nanos(100), life.action());
    sim.schedule_at(TimePoint::from_nanos(100), life.action());
    sim.schedule_at(TimePoint::from_seconds(2.0), life.action());
    sim.clear();
    EXPECT_EQ(life.destroyed, std::vector<int>(3, 1));
    sim.run();
    EXPECT_EQ(life.ran, std::vector<int>(3, 0));
    EXPECT_EQ(life.destroyed, std::vector<int>(3, 1));
  });
}

TEST(SimulatorLifetimeTest, ClearFromInsideRunningActionKeepsItAlive) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Lifetimes life;
    Sched sim;
    std::vector<int> destroyed_inside;
    sim.schedule_at(TimePoint::from_nanos(1'000), life.action([&] {
      sim.clear();  // drops ids 1 and 2; this action (id 0) is still running
      destroyed_inside = life.destroyed;
      sim.schedule_after(Duration::nanos(10), life.action());  // id 3
    }));
    sim.schedule_at(TimePoint::from_nanos(1'000), life.action());
    sim.schedule_at(TimePoint::from_seconds(1.0), life.action());
    sim.run();
    EXPECT_EQ(destroyed_inside, (std::vector<int>{0, 1, 1}));
    EXPECT_EQ(life.ran, (std::vector<int>{1, 0, 0, 1}));
    EXPECT_EQ(life.destroyed, (std::vector<int>{1, 1, 1, 1}));
  });
}

TEST(SimulatorLifetimeTest, ActionPendingAtHorizonStopRunsLaterOnce) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Lifetimes life;
    Sched sim;
    sim.schedule_at(TimePoint::from_nanos(100), life.action([&] {
      // Same bucket, after the horizon: left pending from the active heap.
      sim.schedule_at(TimePoint::from_nanos(3'000), life.action());
    }));
    sim.schedule_at(TimePoint::from_nanos(2'000), life.action());
    sim.schedule_at(TimePoint::from_seconds(1.0), life.action());
    sim.run_until(TimePoint::from_nanos(1'000));
    EXPECT_EQ(life.ran, (std::vector<int>{1, 0, 0, 0}));
    EXPECT_EQ(life.destroyed, (std::vector<int>{1, 0, 0, 0}));
    EXPECT_EQ(sim.pending_events(), 3u);
    sim.run();
    EXPECT_EQ(life.ran, std::vector<int>(4, 1));
    EXPECT_EQ(life.destroyed, std::vector<int>(4, 1));
  });
}

TEST(SimulatorLifetimeTest, ActionPendingAtSimulatorDestructionIsDestroyedOnce) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Lifetimes life;
    {
      Sched sim;
      sim.schedule_at(TimePoint::from_nanos(100), life.action());
      sim.schedule_at(TimePoint::from_nanos(9'000), life.action());
      sim.schedule_at(TimePoint::from_seconds(1.0), life.action());
      sim.run_until(TimePoint::from_nanos(500));
      EXPECT_EQ(life.destroyed, (std::vector<int>{1, 0, 0}));
    }
    EXPECT_EQ(life.ran, (std::vector<int>{1, 0, 0}));
    EXPECT_EQ(life.destroyed, std::vector<int>(3, 1));
  });
}

TEST(SimulatorLifetimeTest, ThrowingActionPropagatesAndLaterEventsStillRunInOrder) {
  on_both_schedulers([](auto tag) {
    using Sched = typename decltype(tag)::type;
    Lifetimes life;
    Sched sim;
    std::vector<int> order;
    sim.schedule_at(TimePoint::from_nanos(100), life.action([&] {
      order.push_back(0);
      // Both land in the bucket being drained (the active heap); the first
      // throws, the second must survive the unwinding and run on the next
      // call.
      sim.schedule_at(TimePoint::from_nanos(200), life.action([&] {
        order.push_back(1);
        throw std::runtime_error{"action failed"};
      }));
      sim.schedule_at(TimePoint::from_nanos(300), life.action([&] { order.push_back(2); }));
    }));
    sim.schedule_at(TimePoint::from_nanos(300), life.action([&] { order.push_back(3); }));
    sim.schedule_at(TimePoint::from_nanos(9'000), life.action([&] { order.push_back(4); }));
    sim.schedule_at(TimePoint::from_seconds(1.0), life.action([&] { order.push_back(5); }));

    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(sim.now(), TimePoint::from_nanos(200));
    // Ids follow creation: 0, then the labels 3/4/5 (ids 1-3), then the
    // two scheduled from inside id 0 (ids 4 and 5; id 4 threw).
    EXPECT_EQ(life.destroyed, (std::vector<int>{1, 0, 0, 0, 1, 0}));
    EXPECT_EQ(sim.pending_events(), 4u);
    sim.run();
    // (time, seq): the t=300 event scheduled first (label 3) runs before
    // the one scheduled from inside the first action (label 2).
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2, 4, 5}));
    EXPECT_EQ(life.ran, std::vector<int>(6, 1));
    EXPECT_EQ(life.destroyed, std::vector<int>(6, 1));

    if constexpr (std::is_same_v<Sched, Simulator>) {
      // The thrown action's slot went back to the free list: as many
      // actions as were ever pending at once (five, while the first action
      // ran) fit again without the slab growing.
      const std::size_t slots = sim.action_slots();
      EXPECT_EQ(slots, 5u);
      for (std::size_t i = 0; i < slots; ++i) {
        sim.schedule_after(Duration::nanos(static_cast<std::int64_t>(i)), life.action());
      }
      EXPECT_EQ(sim.action_slots(), slots);
      sim.run();
      EXPECT_EQ(life.destroyed, std::vector<int>(life.ran.size(), 1));
    }
  });
}

/// Counts its own move-constructions per id.
struct MoveCounter {
  std::vector<int>* moves;
  std::size_t id;
  MoveCounter(std::vector<int>* m, std::size_t i) : moves{m}, id{i} {}
  MoveCounter(MoveCounter&& other) noexcept : moves{other.moves}, id{other.id} {
    ++(*moves)[id];
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
  void operator()() const {}
};

TEST(SimulatorTest, QueuesMoveKeysNotActions) {
  // A callable is moved three times whatever queue path it takes: into its
  // InlineAction, into a slab slot, and out of the slot when it runs.
  // Bucket sorts, heap sifts and migrations move keys.
  Simulator sim;
  constexpr std::size_t kActions = 8;
  // Grow the slab first so no slot-vector growth moves actions below.
  for (std::size_t i = 0; i < kActions; ++i) sim.schedule_at(TimePoint::from_nanos(1), [] {});
  sim.run();
  ASSERT_EQ(sim.action_slots(), kActions);

  std::vector<int> moves(7, 0);
  const TimePoint base = TimePoint::from_nanos(4096 * 10);
  // Out-of-order appends into one bucket: sorted when the cursor gets there.
  sim.schedule_at(base + Duration::nanos(300), MoveCounter{&moves, 0});
  sim.schedule_at(base + Duration::nanos(200), MoveCounter{&moves, 1});
  sim.schedule_at(base + Duration::nanos(100), MoveCounter{&moves, 2});
  // Beyond the wheel window: overflow heap, then migration.
  sim.schedule_at(TimePoint::from_seconds(0.5), MoveCounter{&moves, 3});
  sim.schedule_at(TimePoint::from_seconds(0.2), MoveCounter{&moves, 4});
  // Into the bucket being drained: the active heap.
  sim.schedule_at(base, [&] {
    sim.schedule_at(sim.now() + Duration::nanos(50), MoveCounter{&moves, 5});
    sim.schedule_at(sim.now() + Duration::nanos(20), MoveCounter{&moves, 6});
  });
  sim.run();
  EXPECT_EQ(moves, std::vector<int>(7, 3));
  EXPECT_EQ(sim.action_slots(), kActions);
}

}  // namespace
}  // namespace fbdcsim::sim
