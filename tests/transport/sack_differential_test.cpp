// Differential gates for the SACK loss-recovery variant (DESIGN.md §13).
//
//  - SackGolden.RecoveryDefaultMatchesPreVariantOutput: explicitly setting
//    recovery = kNewReno reproduces the committed pre-SACK golden
//    (tests/golden/transport_recovery_newreno.golden.txt, generated by
//    `gen_transport_scripted --tcp` on the tree before the scoreboard
//    landed) byte for byte — the variant is a strictly opt-in substitution.
//  - SackGolden.SackVariantMatchesCommittedGolden: the opted-in variant is
//    itself pinned (transport_recovery_sack.golden.txt), so scoreboard
//    behavior cannot drift silently.
//  - Loss-free kSack is bitwise kNewReno end to end: SACK blocks only
//    exist when data lands out of order, so a clean run must not shift a
//    single timestamp or frame byte.
//  - The opted-in variant under heavy faults actually records blocks and
//    repairs from the scoreboard — and is bit-identical to the reference
//    event engine's recording (tests/golden/engine_reference.golden.txt)
//    and across FBDCSIM_THREADS=1/2/8 pool widths (fingerprints and the
//    merged Kind::kSim telemetry section, which includes the
//    transport.sack_* counters).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../support/engine_reference.h"
#include "../support/rack_fingerprint.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/parallel_capture.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::workload {
namespace {

using core::HostRole;

RackSimConfig tcp_config(const topology::Fleet& fleet, HostRole role,
                         core::Duration capture) {
  RackSimConfig cfg = default_rack_config(fleet, role, capture);
  cfg.warmup = core::Duration::millis(100);
  cfg.transport = Transport::kTcp;
  return cfg;
}

RackSimConfig sack_config(const topology::Fleet& fleet, HostRole role,
                          core::Duration capture) {
  RackSimConfig cfg = tcp_config(fleet, role, capture);
  cfg.tcp.recovery = transport::LossRecovery::kSack;
  return cfg;
}

void run_golden_gate(const std::string& path,
                     const std::function<void(RackSimConfig&)>& tweak) {
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;

  const topology::Fleet fleet = build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  std::string role_name, fault_name, fp_hex;
  std::size_t trace_len = 0;
  std::uint64_t events = 0;
  int rows = 0;
  while (golden >> role_name >> fault_name >> fp_hex >> trace_len >> events) {
    ++rows;
    HostRole role{};
    if (role_name == "Web") {
      role = HostRole::kWeb;
    } else if (role_name == "Cache-f") {
      role = HostRole::kCacheFollower;
    } else if (role_name == "Cache-l") {
      role = HostRole::kCacheLeader;
    } else if (role_name == "Hadoop") {
      role = HostRole::kHadoop;
    } else {
      FAIL() << "unknown role in golden: " << role_name;
    }
    RackSimConfig cfg = tcp_config(fleet, role, core::Duration::millis(300));
    cfg.sample_buffer = true;
    tweak(cfg);
    if (fault_name == "heavy") cfg.faults = &heavy;

    RackSimulation rack{fleet, cfg};
    const RackSimResult result = rack.run();
    EXPECT_EQ(result.trace.size(), trace_len) << role_name << " " << fault_name;
    EXPECT_EQ(result.events, events) << role_name << " " << fault_name;
    std::ostringstream got;
    got << std::hex << tests::fingerprint(result);
    std::string got_hex = got.str();
    got_hex.insert(0, 16 - got_hex.size(), '0');
    EXPECT_EQ(got_hex, fp_hex) << role_name << " " << fault_name;
  }
  EXPECT_EQ(rows, 8) << "golden must cover 4 roles x {off, heavy}";
}

TEST(SackGolden, RecoveryDefaultMatchesPreVariantOutput) {
  // The golden was generated before the SACK variant landed; EXPLICITLY
  // setting the default proves recovery = kNewReno is that same code path,
  // not merely a similar one.
  run_golden_gate(std::string{FBDCSIM_GOLDEN_DIR} + "/transport_recovery_newreno.golden.txt",
                  [](RackSimConfig& cfg) {
                    cfg.tcp.recovery = transport::LossRecovery::kNewReno;
                  });
}

TEST(SackGolden, SackVariantMatchesCommittedGolden) {
  // Generated by `gen_transport_scripted --sack`. Its fault-free rows equal
  // the NewReno golden's (loss-free equivalence, also asserted below); the
  // heavy rows pin the scoreboard's divergent repair behavior.
  run_golden_gate(std::string{FBDCSIM_GOLDEN_DIR} + "/transport_recovery_sack.golden.txt",
                  [](RackSimConfig& cfg) {
                    cfg.tcp.recovery = transport::LossRecovery::kSack;
                  });
}

TEST(SackDifferential, LossFreeSackIsBitwiseNewReno) {
  // Without faults these rack configurations never drop, so no data lands
  // out of order, no receiver emits a block, and the kSack sender follows
  // the NewReno trajectory bit for bit — same trace, same event count,
  // zero scoreboard activity.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  for (const HostRole role : {HostRole::kWeb, HostRole::kCacheFollower,
                              HostRole::kCacheLeader, HostRole::kHadoop}) {
    RackSimConfig reno = tcp_config(fleet, role, core::Duration::millis(200));
    reno.sample_buffer = true;
    RackSimConfig sack = sack_config(fleet, role, core::Duration::millis(200));
    sack.sample_buffer = true;

    RackSimulation reno_rack{fleet, reno};
    const RackSimResult reno_result = reno_rack.run();
    RackSimulation sack_rack{fleet, sack};
    const RackSimResult sack_result = sack_rack.run();

    EXPECT_EQ(tests::fingerprint(sack_result), tests::fingerprint(reno_result))
        << core::to_string(role);
    EXPECT_EQ(sack_result.events, reno_result.events) << core::to_string(role);
    ASSERT_NE(sack_rack.transport_mux(), nullptr);
    const transport::TransportMux::Stats& s = sack_rack.transport_mux()->stats();
    EXPECT_EQ(s.sack_blocks_recorded, 0) << core::to_string(role);
    EXPECT_EQ(s.sack_bytes, 0) << core::to_string(role);
    EXPECT_EQ(s.sack_retransmits, 0) << core::to_string(role);
    EXPECT_EQ(s.sack_rescue_retransmits, 0) << core::to_string(role);
  }
}

TEST(SackDifferential, OptedInVariantRecordsBlocksAndRepairsFromTheScoreboard) {
  // Sanity for every other case in this file: the configuration the
  // engine/thread gates run actually exercises the new machinery. Heavy
  // path loss over Hadoop's bulk fan-in produces out-of-order arrivals,
  // blocks, and pipe-gated hole retransmissions.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  RackSimConfig cfg = sack_config(fleet, HostRole::kHadoop, core::Duration::millis(300));
  cfg.faults = &heavy;
  RackSimulation rack{fleet, cfg};
  const RackSimResult result = rack.run();
  ASSERT_GT(result.trace.size(), 0u);

  ASSERT_NE(rack.transport_mux(), nullptr);
  const transport::TransportMux::Stats& s = rack.transport_mux()->stats();
  EXPECT_GT(s.sack_blocks_recorded, 0) << "receivers must report blocks";
  EXPECT_GT(s.sack_bytes, 0);
  EXPECT_GT(s.sack_retransmits, 0) << "holes must be repaired from the scoreboard";
  EXPECT_GT(s.rtx_dupack_segments, 0);
  EXPECT_GT(s.bytes_delivered, 0);
}

TEST(SackDifferential, BitIdenticalAcrossEngines) {
  // Fault-free and heavy-fault Hadoop SACK captures (fingerprint, events,
  // SACK retransmits) against the reference engine's recording; the heavy
  // row's retransmits are non-zero there, so the gate covers live
  // scoreboard repair.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  EXPECT_EQ(tests::engine_reference_mismatches(
                tests::tcp_variant_lines(fleet, tests::TcpVariant::kSack)),
            std::vector<std::string>{});
}

TEST(SackDifferential, BitIdenticalAcrossThreadCounts) {
  // FBDCSIM_THREADS=1/2/8: per-capture fingerprints and the merged
  // Kind::kSim telemetry section (which now includes transport.sack_blocks
  // / transport.sack_bytes / transport.sack_retransmits /
  // transport.sack_rescue) must not depend on pool width.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  auto run_batch = [&fleet](int workers) {
    std::vector<std::function<std::uint64_t()>> tasks;
    for (const HostRole role : {HostRole::kWeb, HostRole::kHadoop}) {
      tasks.push_back([&fleet, role] {
        const faults::FaultPlan heavy{faults::heavy_profile()};
        RackSimConfig cfg = sack_config(fleet, role, core::Duration::millis(200));
        cfg.faults = &heavy;
        RackSimulation rack{fleet, cfg};
        return tests::fingerprint(rack.run());
      });
    }
    telemetry::MetricsRegistry::global().reset();
    std::vector<std::uint64_t> fps;
    {
      runtime::ThreadPool pool{workers};
      runtime::ParallelCaptureRunner runner{pool};
      fps = runner.run(tasks);
    }
    return std::pair{fps, tests::sim_metrics_json()};
  };

  const auto baseline = run_batch(1);
  ASSERT_EQ(baseline.first.size(), 2u);
  for (const int workers : {2, 8}) {
    const auto got = run_batch(workers);
    EXPECT_EQ(got.first, baseline.first) << "workers=" << workers;
    EXPECT_EQ(got.second, baseline.second) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace fbdcsim::workload
