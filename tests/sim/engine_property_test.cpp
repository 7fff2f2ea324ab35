// Property tests for the event-engine ordering laws (DESIGN.md §6/§9).
//
// Each seeded case generates a random schedule — batches of events across
// bucket and wheel-window boundaries, children scheduled from inside
// running actions, horizon-bounded runs, occasional mid-action clear() —
// executes it on sim::Simulator and on the reference oracle
// (tests/support/reference_scheduler.h, the pre-rewrite heap engine), and
// asserts:
//
//   1. the Simulator log is identical to the oracle's log (same events,
//      same order, same timestamps);
//   2. execution times are globally nondecreasing;
//   3. equal-time events fire in schedule order (ids strictly increase
//      within every equal-time run);
//   4. run_until(h) executes exactly the events with time <= h, pins the
//      clock to h, and leaves strictly-later events pending.
//
// The churn style also cycles schedule -> run_until -> clear() many times
// and checks that the Simulator's action slab never holds more slots than
// the peak number of pending events since the last clear(), i.e. that
// every executed or dropped action gives its slot back.
//
// The throwing style lets some actions throw out of run()/run_until();
// after each throw the test schedules from outside the run, at the
// current time (the bucket the throw interrupted) and later, and resumes.
//
// The eight style instantiations below total 248 seeded cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "../support/reference_scheduler.h"
#include "fbdcsim/sim/simulator.h"

namespace fbdcsim::sim {
namespace {

struct LogEntry {
  std::int64_t at_ns;
  std::uint64_t id;
  bool operator==(const LogEntry&) const = default;
};

enum class Style {
  kMixed,     // deltas from sub-bucket to beyond the wheel window
  kFifo,      // few distinct times, many equal-time events
  kHorizon,   // interleaves many bounded runs with scheduling
  kClear,     // some actions call Simulator::clear()
  kBoundary,  // times pinned to bucket-boundary multiples +/- 1 ns
  kOverflow,  // mostly far-future events (overflow heap + migration)
  kChurn,     // many schedule -> run_until -> clear() cycles (slot reuse)
  kThrow,     // some actions throw; the test schedules from outside, resumes
};

/// What a throwing action throws (run_resuming catches only this).
struct ActionThrew {};

constexpr std::int64_t kBucketNs = 4096;          // engine bucket width
constexpr std::int64_t kWindowNs = 1024 * kBucketNs;  // wheel span

template <typename Sched>
struct Driver {
  Sched sim;
  std::mt19937_64 rng;
  Style style;
  std::vector<LogEntry> log;
  std::uint64_t next_id{0};
  std::uint64_t event_budget{600};
  std::size_t peak_pending{0};  // since the last clear()
  int slot_mismatches{0};       // Simulator: action_slots() != peak_pending
  int throws{0};                // kThrow: exceptions caught out of a run

  Driver(std::uint64_t seed, Style s) : rng{seed}, style{s} {
    if (style == Style::kChurn) event_budget = 2'000;
  }

  std::int64_t draw_delta() {
    switch (style) {
      case Style::kFifo:
        // 4 distinct times reused heavily -> long equal-time runs.
        return (rng() % 4) * 50'000;
      case Style::kBoundary: {
        const std::int64_t base = static_cast<std::int64_t>(1 + rng() % 2000) * kBucketNs;
        const std::int64_t jitter = static_cast<std::int64_t>(rng() % 3) - 1;
        return base + jitter;  // lands at a bucket edge, or 1 ns either side
      }
      case Style::kOverflow:
        if (rng() % 4 != 0) {
          // Beyond the wheel window: 1x..32x the span.
          return kWindowNs + static_cast<std::int64_t>(rng() % (31 * kWindowNs));
        }
        return static_cast<std::int64_t>(rng() % kWindowNs);
      case Style::kChurn:
        switch (rng() % 5) {
          case 0: return 0;                                                   // equal time
          case 1: return static_cast<std::int64_t>(rng() % 8);                // same bucket
          case 2: return static_cast<std::int64_t>(rng() % (2 * kBucketNs));  // out of order
          case 3: return static_cast<std::int64_t>(rng() % kWindowNs);        // wheel
          default:                                                            // overflow
            return kWindowNs + static_cast<std::int64_t>(rng() % (8 * kWindowNs));
        }
      case Style::kMixed:
      case Style::kHorizon:
      case Style::kClear:
      case Style::kThrow:
      default:
        switch (rng() % 4) {
          case 0: return static_cast<std::int64_t>(rng() % 8);          // same/near time
          case 1: return static_cast<std::int64_t>(rng() % kBucketNs);  // within bucket
          case 2: return static_cast<std::int64_t>(rng() % kWindowNs);  // within wheel
          default: return static_cast<std::int64_t>(rng() % (8 * kWindowNs));  // overflow
        }
    }
  }

  void schedule_one() {
    if (next_id >= event_budget) return;
    const std::uint64_t id = next_id++;
    const bool allow_clear = style == Style::kClear && rng() % 37 == 0;
    const bool throws_after = style == Style::kThrow && rng() % 23 == 0;
    const int children = static_cast<int>(rng() % 3);
    sim.schedule_after(Duration::nanos(draw_delta()),
                       [this, id, children, allow_clear, throws_after] {
                         log.push_back(LogEntry{sim.now().count_nanos(), id});
                         if (allow_clear) sim.clear();
                         // Children first, so the throw leaves some of them
                         // pending in the bucket being drained.
                         for (int c = 0; c < children; ++c) schedule_one();
                         if (throws_after) throw ActionThrew{};
                       });
    peak_pending = std::max(peak_pending, sim.pending_events());
  }

  void check_slots() {
    if constexpr (std::is_same_v<Sched, Simulator>) {
      if (sim.action_slots() != peak_pending) ++slot_mismatches;
    }
  }

  /// Runs `run_call` to completion. Each time an action throws out of it,
  /// schedules from outside the run — at the current time, i.e. into the
  /// bucket the throw interrupted, and at drawn later times — and resumes.
  template <typename RunCall>
  void run_resuming(RunCall run_call) {
    for (;;) {
      try {
        run_call();
        return;
      } catch (const ActionThrew&) {
        ++throws;
        const std::uint64_t id = next_id++;
        sim.schedule_at(sim.now(), [this, id] {
          log.push_back(LogEntry{sim.now().count_nanos(), id});
        });
        const std::uint64_t later = 1 + rng() % 3;
        for (std::uint64_t i = 0; i < later; ++i) schedule_one();
      }
    }
  }

  void run_churn() {
    for (int cycle = 0; cycle < 60; ++cycle) {
      const std::uint64_t batch = 4 + rng() % 20;
      for (std::uint64_t i = 0; i < batch; ++i) schedule_one();
      sim.run_until(sim.now() + Duration::nanos(draw_delta()));
      check_slots();
      if (rng() % 4 != 0) {  // some cycles carry their pending events over
        sim.clear();
        peak_pending = 0;
        check_slots();
      }
    }
    sim.run();
    check_slots();
  }

  void run_scenario() {
    if (style == Style::kChurn) {
      run_churn();
      return;
    }
    const int batches = 4;
    for (int b = 0; b < batches; ++b) {
      const std::uint64_t batch = 20 + rng() % 40;
      for (std::uint64_t i = 0; i < batch; ++i) schedule_one();
      if (style == Style::kHorizon || rng() % 2 == 0) {
        const TimePoint horizon = sim.now() + Duration::nanos(draw_delta());
        run_resuming([&] { sim.run_until(horizon); });
      }
    }
    run_resuming([&] { sim.run(); });
  }
};

class EnginePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static Style style_for_suite(const std::string& suite) {
    if (suite.find("EqualTimeFifo") != std::string::npos) return Style::kFifo;
    if (suite.find("Horizon") != std::string::npos) return Style::kHorizon;
    if (suite.find("Clear") != std::string::npos) return Style::kClear;
    if (suite.find("Boundary") != std::string::npos) return Style::kBoundary;
    if (suite.find("Overflow") != std::string::npos) return Style::kOverflow;
    if (suite.find("Churn") != std::string::npos) return Style::kChurn;
    if (suite.find("Throwing") != std::string::npos) return Style::kThrow;
    return Style::kMixed;
  }

  void check_laws(const std::vector<LogEntry>& log) {
    for (std::size_t i = 1; i < log.size(); ++i) {
      ASSERT_GE(log[i].at_ns, log[i - 1].at_ns) << "time went backwards at index " << i;
      if (log[i].at_ns == log[i - 1].at_ns) {
        ASSERT_GT(log[i].id, log[i - 1].id)
            << "equal-time events out of schedule order at index " << i;
      }
    }
  }

  void run_and_compare() {
    const std::uint64_t seed = GetParam();
    const Style style = style_for_suite(
        ::testing::UnitTest::GetInstance()->current_test_info()->test_suite_name());

    Driver<Simulator> engine{seed, style};
    engine.run_scenario();
    Driver<tests::ReferenceScheduler> reference{seed, style};
    reference.run_scenario();

    ASSERT_FALSE(engine.log.empty());
    ASSERT_EQ(engine.log.size(), reference.log.size());
    EXPECT_EQ(engine.log, reference.log);
    check_laws(engine.log);
    EXPECT_EQ(engine.sim.executed_events(), reference.sim.executed_events());
    EXPECT_EQ(engine.sim.pending_events(), 0u);
    EXPECT_EQ(engine.sim.now(), reference.sim.now());
    EXPECT_EQ(engine.slot_mismatches, 0);
    EXPECT_EQ(engine.throws, reference.throws);
    if (style == Style::kThrow) {
      EXPECT_GT(engine.throws, 0) << "no action threw; the style tests nothing";
    }
  }
};

using MixedSchedules = EnginePropertyTest;
TEST_P(MixedSchedules, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, MixedSchedules, ::testing::Range<std::uint64_t>(0, 64));

using EqualTimeFifo = EnginePropertyTest;
TEST_P(EqualTimeFifo, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, EqualTimeFifo, ::testing::Range<std::uint64_t>(100, 132));

using HorizonRuns = EnginePropertyTest;
TEST_P(HorizonRuns, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, HorizonRuns, ::testing::Range<std::uint64_t>(200, 232));

using ClearDuringRun = EnginePropertyTest;
TEST_P(ClearDuringRun, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, ClearDuringRun, ::testing::Range<std::uint64_t>(300, 324));

using BucketBoundary = EnginePropertyTest;
TEST_P(BucketBoundary, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, BucketBoundary, ::testing::Range<std::uint64_t>(400, 424));

using OverflowHeap = EnginePropertyTest;
TEST_P(OverflowHeap, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, OverflowHeap, ::testing::Range<std::uint64_t>(500, 524));

using SlotReuseChurn = EnginePropertyTest;
TEST_P(SlotReuseChurn, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, SlotReuseChurn, ::testing::Range<std::uint64_t>(700, 724));

using ThrowingAction = EnginePropertyTest;
TEST_P(ThrowingAction, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, ThrowingAction, ::testing::Range<std::uint64_t>(800, 824));

// The horizon law needs direct inspection too (the differential comparison
// alone can't see *which* events stayed pending).
class HorizonLawTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HorizonLawTest, StrictlyLaterEventsStayQueuedAndClockPins) {
  std::mt19937_64 rng{GetParam()};
  Simulator sim;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 200; ++i) {
    const auto t = static_cast<std::int64_t>(rng() % (4 * kWindowNs));
    times.push_back(t);
    sim.schedule_at(TimePoint::from_nanos(t), [] {});
  }
  const auto horizon = static_cast<std::int64_t>(rng() % (4 * kWindowNs));
  sim.run_until(TimePoint::from_nanos(horizon));

  std::size_t expect_executed = 0;
  for (const std::int64_t t : times) {
    if (t <= horizon) ++expect_executed;
  }
  EXPECT_EQ(sim.executed_events(), expect_executed);
  EXPECT_EQ(sim.pending_events(), times.size() - expect_executed);
  EXPECT_EQ(sim.now(), TimePoint::from_nanos(horizon));

  sim.run();
  EXPECT_EQ(sim.executed_events(), times.size());
  EXPECT_EQ(sim.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HorizonLawTest, ::testing::Range<std::uint64_t>(600, 632));

}  // namespace
}  // namespace fbdcsim::sim
