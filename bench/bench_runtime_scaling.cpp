// Runtime scaling, two sections:
//
//  1. Serial vs ShardedFleetRunner wall-clock for the Table 3 fleet
//     workload, with bit-identity of the resulting locality matrix
//     asserted for every worker count.
//  2. Hot-path event-engine storm: the same deterministic single-threaded
//     event storm on the reference heap scheduler (the pre-rewrite
//     binary-heap/std::function engine, kept as a test oracle in
//     tests/support/reference_scheduler.h) and on sim::Simulator's
//     calendar-wheel engine, with checksums asserted bit-identical and a
//     >=1.5x events/sec gate on sim::Simulator. Both rates land in the
//     report's "extra" JSON.
//
// Exits non-zero on any mismatch, a failed engine gate, or — on hardware
// with at least 4 cores — if 4 workers fail to reach a 2x speedup.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "common.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/workload/fleet_flows.h"
#include "reference_scheduler.h"

using namespace fbdcsim;

namespace {

struct RunResult {
  double seconds{0.0};
  std::int64_t flows{0};
  double bytes{0.0};
  std::size_t samples{0};
  monitoring::ScubaTable::LocalityBytes locality{};
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using Feed = std::function<void(const workload::FleetFlowGenerator::Visit&)>;

RunResult measure(const Feed& feed, monitoring::FbflowPipeline& fbflow) {
  RunResult r;
  std::int64_t flows = 0;
  double bytes = 0.0;
  const double t0 = now_seconds();
  feed([&](const core::FlowRecord& flow) {
    fbflow.offer_flow(flow);
    bytes += static_cast<double>(flow.bytes.count_bytes());
    ++flows;
  });
  r.seconds = now_seconds() - t0;
  r.flows = flows;
  r.bytes = bytes;
  r.samples = fbflow.scuba().size();
  r.locality = fbflow.scuba().locality_bytes(fbflow.sampling_rate());
  return r;
}

int compare(const RunResult& ref, const RunResult& got, int workers) {
  int mismatches = 0;
  if (got.flows != ref.flows) {
    std::printf("MISMATCH (%d workers): flow count %lld vs %lld\n", workers,
                static_cast<long long>(got.flows), static_cast<long long>(ref.flows));
    ++mismatches;
  }
  if (got.bytes != ref.bytes) {
    std::printf("MISMATCH (%d workers): byte total %.17g vs %.17g\n", workers,
                got.bytes, ref.bytes);
    ++mismatches;
  }
  if (got.samples != ref.samples) {
    std::printf("MISMATCH (%d workers): sampled headers %zu vs %zu\n", workers,
                got.samples, ref.samples);
    ++mismatches;
  }
  for (int l = 0; l < core::kNumLocalities; ++l) {
    if (got.locality.bytes[l] != ref.locality.bytes[l]) {
      std::printf("MISMATCH (%d workers): locality[%d] %.17g vs %.17g\n", workers, l,
                  got.locality.bytes[l], ref.locality.bytes[l]);
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Section 2: hot-path engine storm (reference heap vs calendar scheduler).

struct StormOutcome {
  double seconds{0.0};
  std::uint64_t events{0};
  std::uint64_t pending{0};
  std::uint64_t checksum{0};
};

/// A deterministic single-threaded event storm shaped like the rack-sim
/// hot path: many sources rescheduling themselves with small captured
/// state (48 bytes — within InlineAction's inline buffer), delays mostly
/// inside the calendar engine's wheel window with occasional far jumps
/// through the overflow heap, plus a handful of periodic timers. `Sched`
/// is sim::Simulator or the reference oracle; both see the same schedule
/// calls in the same order.
template <typename Sched>
class EngineStorm {
 public:
  StormOutcome run() {
    for (std::uint32_t id = 0; id < kSources; ++id) {
      schedule_next(0x9E3779B97F4A7C15ULL * (id + 1), id);
    }
    for (std::int64_t t = 0; t < kTimers; ++t) arm_timer(core::Duration::micros(50 + 7 * t));
    const double t0 = now_seconds();
    sim_.run_until(core::TimePoint::from_nanos(kHorizonNs));
    StormOutcome out;
    out.seconds = now_seconds() - t0;
    out.events = sim_.executed_events();
    out.pending = sim_.pending_events();
    out.checksum = checksum_;
    return out;
  }

 private:
  static constexpr std::uint32_t kSources = 2048;
  static constexpr std::int64_t kTimers = 8;
  static constexpr std::int64_t kHorizonNs = 3'000'000'000;  // 3 s of sim time

  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  }

  static std::uint64_t next_state(std::uint64_t s) {  // xorshift64
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }

  /// A periodic timer as sim::PeriodicTimer schedules it: the first tick
  /// one period from now, each tick re-arming the next after it runs.
  void arm_timer(core::Duration period) {
    sim_.schedule_after(period, [this, period] {
      checksum_ = mix(checksum_, static_cast<std::uint64_t>(sim_.now().count_nanos()));
      arm_timer(period);
    });
  }

  void schedule_next(std::uint64_t state, std::uint32_t id) {
    // Timer-wheel-shaped steps of 0.5 µs – 4 ms: the 2048 sources spread
    // across the whole 4.2 ms wheel window, so buckets stay sparse while
    // the reference engine's heap stays ~2048 deep. Roughly one step in
    // 4096 jumps 8 ms ahead, through the overflow heap.
    const bool far = (state >> 24) % 4096 == 0;
    const auto delta = core::Duration::nanos(
        far ? 8'000'000 : 500 + static_cast<std::int64_t>(state % 4'000'000));
    const std::uint64_t p0 = state ^ 0xA5A5A5A5A5A5A5A5ULL;
    const std::uint64_t p1 = state + id;
    const std::uint64_t p2 = state >> 7;
    sim_.schedule_after(delta, [this, state, id, p0, p1, p2] {
      checksum_ = mix(checksum_,
                      static_cast<std::uint64_t>(sim_.now().count_nanos()) ^ p0 ^ p1 ^
                          p2 ^ id);
      schedule_next(next_state(state), id);
    });
  }

  Sched sim_;
  std::uint64_t checksum_{0};
};

/// Best-of-two timed runs (the storm is deterministic, so both runs
/// produce the same outcome; the min smooths scheduler noise).
template <typename Sched>
StormOutcome measure_storm() {
  StormOutcome best = EngineStorm<Sched>{}.run();
  const StormOutcome again = EngineStorm<Sched>{}.run();
  if (again.seconds < best.seconds) best = again;
  return best;
}

}  // namespace

int main() {
  bench::BenchReport report{"runtime_scaling", 2015};
  bench::banner("Runtime scaling: serial vs sharded parallel fleet generation",
                "Section 3.3.1 methodology; runtime/ subsystem check", 2015);

  const topology::Fleet fleet = workload::build_fleet_experiment_fleet();
  workload::FleetGenConfig cfg;
  // The Table 3 workload at a shorter horizon: enough work for stable
  // timings, small enough that the serial baseline stays a few seconds.
  cfg.horizon = core::Duration::hours(6);
  cfg.epoch = core::Duration::minutes(30);
  cfg.seed = 2015;
  cfg.rate_scale = 0.005;
  const workload::FleetFlowGenerator gen{fleet, cfg};
  std::printf("fleet: %zu hosts; horizon: 6 h\n\n", fleet.num_hosts());

  // Serial reference: the plain FleetFlowGenerator::generate path.
  monitoring::FbflowPipeline serial_pipe{fleet, monitoring::kDefaultSamplingRate,
                                         core::RngStream{99}};
  const RunResult serial = measure(
      [&](const workload::FleetFlowGenerator::Visit& v) { gen.generate(v); }, serial_pipe);
  std::printf("%-10s  %10s  %10s  %12s  %14s\n", "config", "wall (s)", "speedup",
              "flows", "sampled hdrs");
  std::printf("%-10s  %10.3f  %10s  %12lld  %14zu\n", "serial", serial.seconds, "1.00x",
              static_cast<long long>(serial.flows), serial.samples);

  int mismatches = 0;
  double speedup4 = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    runtime::ThreadPool pool{workers};
    const runtime::ShardedFleetRunner runner{gen, pool};
    monitoring::FbflowPipeline pipe{fleet, monitoring::kDefaultSamplingRate,
                                    core::RngStream{99}};
    const RunResult r = measure(
        [&](const workload::FleetFlowGenerator::Visit& v) { runner.stream(v); }, pipe);
    const double speedup = serial.seconds / r.seconds;
    if (workers == 4) speedup4 = speedup;
    std::printf("%-10s%2d  %8.3f  %9.2fx  %12lld  %14zu\n", "workers=", workers,
                r.seconds, speedup, static_cast<long long>(r.flows), r.samples);
    mismatches += compare(serial, r, workers);
  }

  std::printf("\n");
  if (mismatches == 0) {
    std::printf("output equivalence: PASS — every worker count reproduced the serial "
                "locality matrix, flow count, and byte total bit-for-bit\n");
  } else {
    std::printf("output equivalence: FAIL — %d mismatches\n", mismatches);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4) {
    std::printf("speedup gate (>=2x on 4 workers, %u cores): %s (%.2fx)\n", hw,
                speedup4 >= 2.0 ? "PASS" : "FAIL", speedup4);
    if (speedup4 < 2.0) ++mismatches;
  } else {
    std::printf("speedup gate: skipped — only %u core(s) available, a >=2x speedup "
                "is not demonstrable on this machine (equivalence still checked)\n",
                hw);
  }

  // Section 2: the event-engine storm. Single-threaded by construction
  // (one Simulator), so the >=1.5x gate holds at FBDCSIM_THREADS=1 and is
  // unaffected by pool width.
  std::printf("\nevent-engine storm: reference heap scheduler vs sim::Simulator\n");
  const StormOutcome ref = measure_storm<tests::ReferenceScheduler>();
  const StormOutcome buck = measure_storm<sim::Simulator>();
  const double ref_eps = static_cast<double>(ref.events) / ref.seconds;
  const double buck_eps = static_cast<double>(buck.events) / buck.seconds;
  const double engine_speedup = buck_eps / ref_eps;
  std::printf("%-10s  %10s  %14s  %14s  %10s\n", "engine", "wall (s)", "events",
              "events/sec", "checksum");
  std::printf("%-10s  %10.3f  %14llu  %14.0f  %10llx\n", "reference", ref.seconds,
              static_cast<unsigned long long>(ref.events), ref_eps,
              static_cast<unsigned long long>(ref.checksum));
  std::printf("%-10s  %10.3f  %14llu  %14.0f  %10llx\n", "bucketed", buck.seconds,
              static_cast<unsigned long long>(buck.events), buck_eps,
              static_cast<unsigned long long>(buck.checksum));
  if (buck.checksum != ref.checksum || buck.events != ref.events ||
      buck.pending != ref.pending) {
    std::printf("engine equivalence: FAIL — storm outcomes differ between schedulers\n");
    ++mismatches;
  } else {
    std::printf("engine equivalence: PASS — identical checksum, executed events, and "
                "pending events on both schedulers\n");
  }
  std::printf("engine speedup gate (>=1.5x events/sec): %s (%.2fx)\n",
              engine_speedup >= 1.5 ? "PASS" : "FAIL", engine_speedup);
  if (engine_speedup < 1.5) ++mismatches;
  report.add_extra("engine_reference_events_per_sec", ref_eps);
  report.add_extra("engine_bucketed_events_per_sec", buck_eps);
  report.add_extra("engine_speedup", engine_speedup);

  report.set_status(mismatches);
  return mismatches;
}
