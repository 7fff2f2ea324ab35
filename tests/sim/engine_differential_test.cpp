// Rack-level engine differential: workload presets × fault profiles, and
// the same batch across thread counts.
//
// Every monitored-role preset must reproduce, bit for bit, what the
// reference heap engine (the pre-rewrite binary-heap/std::function
// implementation) produced for it: the packet trace fingerprint, trace
// length, executed events and the Kind::kSim metrics. RackSimulation runs
// the one production engine, so the reference side is the recording in
// tests/golden/engine_reference.golden.txt (scenarios and format in
// tests/support/engine_reference.h). Fault profiles off and heavy both
// run, so the fault-injection paths (shrunken buffers, failed uplinks,
// mirror drops) are covered too.
//
// The thread-count half is live: one Simulator is strictly
// single-threaded, but the runtime layer runs many captures concurrently
// (ParallelCaptureRunner), and DESIGN.md §7 promises Kind::kSim telemetry
// is bit-identical across thread counts. A 4-capture batch on 1 worker
// must match the recording; on 2 and 8 workers (the FBDCSIM_THREADS
// settings) it must match the 1-worker run.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "../support/engine_reference.h"
#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/workload/presets.h"

namespace fbdcsim::workload {
namespace {

using core::HostRole;
using tests::engine_reference_mismatches;
using tests::golden_text;

using RackParam = std::tuple<HostRole, bool>;

std::string rack_param_name(const ::testing::TestParamInfo<RackParam>& info) {
  std::string name{core::to_string(std::get<0>(info.param))};  // "Cache-f" -> "Cachef"
  std::erase_if(name, [](char c) { return c == '-'; });
  return name + (std::get<1>(info.param) ? "FaultsHeavy" : "FaultsOff");
}

class EngineDifferentialRack : public ::testing::TestWithParam<RackParam> {};

TEST_P(EngineDifferentialRack, BucketedEngineIsBitIdenticalToReference) {
  const auto [role, heavy] = GetParam();
  const topology::Fleet fleet = build_rack_experiment_fleet();
  EXPECT_EQ(engine_reference_mismatches(tests::rack_preset_lines(fleet, role, heavy)),
            std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    Presets, EngineDifferentialRack,
    ::testing::Combine(::testing::Values(HostRole::kWeb, HostRole::kCacheFollower,
                                         HostRole::kCacheLeader, HostRole::kHadoop),
                       ::testing::Values(false, true)),
    rack_param_name);

class EngineDifferentialThreads : public ::testing::TestWithParam<bool> {};

TEST_P(EngineDifferentialThreads, IdenticalAcrossEnginesAndPoolWidths) {
  const bool heavy = GetParam();
  const topology::Fleet fleet = build_rack_experiment_fleet();
  const std::vector<tests::GoldenLine> baseline = tests::thread_batch_lines(fleet, heavy, 1);
  EXPECT_EQ(engine_reference_mismatches(baseline), std::vector<std::string>{});
  for (const int workers : {2, 8}) {
    EXPECT_EQ(golden_text(tests::thread_batch_lines(fleet, heavy, workers)),
              golden_text(baseline))
        << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(Faults, EngineDifferentialThreads, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? std::string{"Heavy"} : std::string{"Off"};
                         });

}  // namespace
}  // namespace fbdcsim::workload
