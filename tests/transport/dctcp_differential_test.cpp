// Differential gates for the DCTCP/ECN transport variant (DESIGN.md §12).
//
//  - DctcpGolden: the kTcp + kNewReno DEFAULT stays byte-identical to the
//    committed pre-DCTCP golden (tests/golden/transport_newreno.golden.txt,
//    generated by `gen_transport_scripted --tcp` on the tree before this
//    variant landed) — DCTCP, ECN marking, and topology RTTs are strictly
//    opt-in substitutions.
//  - With marking disabled (huge explicit threshold), cc = kDctcp is
//    bitwise kNewReno end to end: ECT stamping and the idling alpha EWMA
//    must not perturb a single timestamp.
//  - The opted-in variant (kDctcp + kTopology RTTs) actually marks,
//    echoes, and reduces — and is bit-identical to the reference event
//    engine's recording (tests/golden/engine_reference.golden.txt) and
//    across FBDCSIM_THREADS=1/2/8 pool widths (fingerprints, switch
//    counters, and the merged Kind::kSim telemetry section).
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

/// The full opted-in variant: DCTCP congestion control (auto-derived
/// marking threshold at buffer/4) over topology-derived RTTs.
RackSimConfig dctcp_config(const topology::Fleet& fleet, HostRole role,
                           core::Duration capture) {
  RackSimConfig cfg = tcp_config(fleet, role, capture);
  cfg.tcp.cc = transport::CongestionControl::kDctcp;
  cfg.tcp.rtt_mode = transport::RttMode::kTopology;
  return cfg;
}

TEST(DctcpGolden, NewRenoDefaultMatchesPrePrOutput) {
  // The golden file was generated by `gen_transport_scripted --tcp` on the
  // tree BEFORE the DCTCP/ECN + topology-RTT variant landed. Matching
  // fingerprints prove the flow-level default (kTcp + kNewReno +
  // locality-class RTTs) is untouched by the variant.
  std::ifstream golden(std::string{FBDCSIM_GOLDEN_DIR} + "/transport_newreno.golden.txt");
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden/transport_newreno.golden.txt";

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
    // Defaults under test: cc = kNewReno, rtt_mode = kLocalityClass,
    // ecn_threshold = 0. Stated, not set — the default IS the subject.
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

TEST(DctcpDifferential, MarkingDisabledIsBitwiseNewReno) {
  // A DCTCP sender that never sees a mark must be byte-identical to a
  // NewReno one: ECT stamping is invisible to the capture, a zero-mark
  // window's growth shares cwnd_after_ack bitwise (DctcpLaws), and no CE
  // means no ECE, no reduction, no extra ACKs. An explicit huge threshold
  // (> 0, so the rack sim does NOT auto-derive buffer/4) disables marking
  // while keeping the DCTCP machinery fully engaged.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  for (const HostRole role : {HostRole::kHadoop, HostRole::kCacheFollower}) {
    RackSimConfig reno = tcp_config(fleet, role, core::Duration::millis(200));
    reno.sample_buffer = true;

    RackSimConfig dctcp = tcp_config(fleet, role, core::Duration::millis(200));
    dctcp.sample_buffer = true;
    dctcp.tcp.cc = transport::CongestionControl::kDctcp;
    dctcp.rsw.ecn_threshold = core::DataSize::bytes(std::int64_t{1} << 40);

    RackSimulation reno_rack{fleet, reno};
    const RackSimResult reno_result = reno_rack.run();
    RackSimulation dctcp_rack{fleet, dctcp};
    const RackSimResult dctcp_result = dctcp_rack.run();

    EXPECT_EQ(tests::fingerprint(dctcp_result), tests::fingerprint(reno_result))
        << core::to_string(role);
    EXPECT_EQ(dctcp_result.events, reno_result.events) << core::to_string(role);
    EXPECT_EQ(dctcp_result.uplink.ecn_marked_packets, 0) << core::to_string(role);
    EXPECT_EQ(dctcp_result.downlinks.ecn_marked_packets, 0) << core::to_string(role);
    ASSERT_NE(dctcp_rack.transport_mux(), nullptr);
    EXPECT_EQ(dctcp_rack.transport_mux()->stats().ecn_echoed_acks, 0)
        << core::to_string(role);
  }
}

TEST(DctcpDifferential, OptedInVariantMarksEchoesAndReduces) {
  // Sanity for every other case in this file: the configuration the
  // engine/thread gates run actually exercises the new machinery. Hadoop's
  // bulk fan-in keeps the shared buffer above the auto-derived buffer/4
  // threshold long enough to mark.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  RackSimConfig cfg = dctcp_config(fleet, HostRole::kHadoop, core::Duration::millis(300));
  // Capture from t = 0: marking concentrates in the initial fan-in
  // slow-start burst (DCTCP then keeps the queue under K — which is the
  // point), so the ECE-in-trace check needs the opening ramp in-window.
  cfg.warmup = core::Duration::millis(0);
  RackSimulation rack{fleet, cfg};
  const RackSimResult result = rack.run();
  ASSERT_GT(result.trace.size(), 0u);

  EXPECT_GT(result.uplink.ecn_marked_packets + result.downlinks.ecn_marked_packets, 0)
      << "auto-derived threshold (buffer/4) must fire under Hadoop fan-in";
  ASSERT_NE(rack.transport_mux(), nullptr);
  const transport::TransportMux::Stats& s = rack.transport_mux()->stats();
  EXPECT_GT(s.ecn_ce_segments, 0) << "CE-marked segments must reach receivers";
  EXPECT_GT(s.ecn_echoed_acks, 0) << "receivers must echo CE as ECE";
  EXPECT_GT(s.dctcp_cwnd_reductions, 0) << "senders must react once per window";
  EXPECT_GT(s.bytes_delivered, 0);

  // The echo path must also be visible in the capture itself.
  int ece_acks = 0;
  for (const core::PacketHeader& p : result.trace) {
    if (p.flags.ack && p.flags.ece) ++ece_acks;
  }
  EXPECT_GT(ece_acks, 0) << "ECE must appear on captured ACK headers";
}

TEST(DctcpDifferential, BitIdenticalAcrossEngines) {
  // Fault-free and heavy-fault Hadoop DCTCP captures (fingerprint, events,
  // ECN marks) against the reference engine's recording; both rows' marks
  // are non-zero there, so the gate covers live marking.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  EXPECT_EQ(tests::engine_reference_mismatches(
                tests::tcp_variant_lines(fleet, tests::TcpVariant::kDctcp)),
            std::vector<std::string>{});
}

TEST(DctcpDifferential, BitIdenticalAcrossThreadCounts) {
  // FBDCSIM_THREADS=1/2/8: per-capture fingerprints and the merged
  // Kind::kSim telemetry section (which now includes transport.ecn_marked /
  // transport.ecn_echoed / transport.dctcp_reductions) must not depend on
  // pool width.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  auto run_batch = [&fleet](int workers) {
    std::vector<std::function<std::uint64_t()>> tasks;
    for (const HostRole role : {HostRole::kWeb, HostRole::kHadoop}) {
      tasks.push_back([&fleet, role] {
        RackSimConfig cfg = dctcp_config(fleet, role, core::Duration::millis(200));
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
