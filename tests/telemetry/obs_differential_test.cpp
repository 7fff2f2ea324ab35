// Differential gate for the observability layer (DESIGN.md §11): the
// time-series JSON and tracepoint JSONL a capture produces are part of its
// deterministic output, so they must be bit-identical
//
//   - to what the reference heap engine produced (64-bit hashes and totals
//     recorded in tests/golden/engine_reference.golden.txt), and
//   - across thread-pool widths 1/2/8 (one Simulator per capture on the pool),
//
// under the heaviest observable load we can arrange: flow-level TCP with
// the heavy fault profile, so drops, RTO fires, fast-retransmit
// transitions, and fault epochs all hit the flight recorder.
//
// On a thread-count mismatch the flight-recorder JSONL is printed to
// stderr — the dump-on-differential-mismatch workflow the flight recorder
// exists for.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "../support/engine_reference.h"
#include "../support/telemetry_on.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/parallel_capture.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::telemetry {
namespace {

using core::HostRole;
using tests::ObsOutput;
using tests::TelemetryOn;

void expect_same(const ObsOutput& baseline, const ObsOutput& got, const char* what) {
  EXPECT_EQ(baseline.timeseries_json, got.timeseries_json) << what;
  EXPECT_EQ(baseline.tracepoint_total, got.tracepoint_total) << what;
  EXPECT_EQ(baseline.flows_total, got.flows_total) << what;
  EXPECT_EQ(baseline.flows_jsonl, got.flows_jsonl) << "flows JSONL diverged: " << what;
  if (baseline.tracepoints_jsonl != got.tracepoints_jsonl) {
    // The flight-recorder workflow: on a differential mismatch, dump both
    // sides' last-N tracepoints so the divergence point is greppable.
    std::fprintf(stderr, "obs differential mismatch (%s)\n--- baseline ---\n%s"
                         "--- divergent ---\n%s",
                 what, baseline.tracepoints_jsonl.c_str(),
                 got.tracepoints_jsonl.c_str());
    ADD_FAILURE() << "tracepoint JSONL diverged (" << what << "); dumps on stderr";
  }
}

TEST(ObsDifferential, BitIdenticalAcrossEngines) {
  if (!FBDCSIM_TELEMETRY_ENABLED) {
    GTEST_SKIP() << "observability output is compiled out under FBDCSIM_TELEMETRY=OFF";
  }
  // Web and Hadoop; the recorded tracepoint totals are non-zero and the
  // flow totals pass the 512-record ring, so the gate covers eviction
  // order, not just the easy no-wrap case.
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  EXPECT_EQ(tests::engine_reference_mismatches(tests::obs_lines(fleet)),
            std::vector<std::string>{});
}

TEST(ObsDifferential, BitIdenticalAcrossThreadCounts) {
  TelemetryOn on;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};

  auto run_batch = [&](int workers) {
    std::vector<std::function<ObsOutput()>> tasks;
    for (const HostRole role : {HostRole::kWeb, HostRole::kHadoop}) {
      tasks.push_back([&fleet, &heavy, role] {
        return tests::run_obs_capture(fleet, role, &heavy);
      });
    }
    runtime::ThreadPool pool{workers};
    runtime::ParallelCaptureRunner runner{pool};
    return runner.run(tasks);
  };

  const std::vector<ObsOutput> baseline = run_batch(1);
  ASSERT_EQ(baseline.size(), 2u);
  for (const int workers : {2, 8}) {
    const std::vector<ObsOutput> got = run_batch(workers);
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string what =
          "workers=" + std::to_string(workers) + " capture=" + std::to_string(i);
      expect_same(baseline[i], got[i], what.c_str());
    }
  }
}

TEST(ObsDifferential, ObsOffProducesNoObservabilityOutput) {
  // The default: byte-identical behavior to pre-observability builds means
  // no series, no tracepoints, nothing to merge.
  TelemetryOn on;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg = workload::default_rack_config(
      fleet, HostRole::kWeb, core::Duration::millis(100));
  cfg.transport = workload::Transport::kTcp;
  ASSERT_FALSE(cfg.obs.enabled());
  workload::RackSimulation rack{fleet, cfg};
  const workload::RackSimResult result = rack.run();
  EXPECT_TRUE(result.timeseries.empty());
  EXPECT_TRUE(result.tracepoints.records.empty());
  EXPECT_EQ(result.tracepoints.total, 0);
  EXPECT_TRUE(result.flows.records.empty());
  EXPECT_EQ(result.flows.total, 0);
}

TEST(ObsDifferential, FlowsLevelRequiresOptIn) {
  // FBDCSIM_OBS=on alone must not allocate a ledger: the flows level is its
  // own opt-in, so dump/probe users pay nothing for the per-flow machinery.
  TelemetryOn on;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg = workload::default_rack_config(
      fleet, HostRole::kWeb, core::Duration::millis(100));
  cfg.transport = workload::Transport::kTcp;
  cfg.obs.mode = ObsConfig::Mode::kOn;
  ASSERT_FALSE(cfg.obs.flows);
  workload::RackSimulation rack{fleet, cfg};
  const workload::RackSimResult result = rack.run();
  EXPECT_TRUE(result.flows.records.empty());
  EXPECT_EQ(result.flows.total, 0);
}

}  // namespace
}  // namespace fbdcsim::telemetry
