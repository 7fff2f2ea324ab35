#include "fbdcsim/workload/rack_sim.h"

#include <gtest/gtest.h>

#include "../support/rack_fingerprint.h"
#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/workload/presets.h"

namespace fbdcsim::workload {
namespace {

using core::Duration;
using core::HostRole;

topology::Fleet small_rack_fleet() {
  topology::StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 1;
  cfg.frontend_clusters = 1;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 1;
  cfg.database_clusters = 1;
  cfg.service_clusters = 1;
  cfg.racks_per_cluster = 8;
  cfg.hosts_per_rack = 4;
  cfg.frontend_web_racks = 5;
  cfg.frontend_cache_racks = 1;
  cfg.frontend_multifeed_racks = 1;
  return topology::build_standard_fleet(cfg);
}

RackSimConfig quick_config(const topology::Fleet& fleet, HostRole role) {
  RackSimConfig cfg;
  cfg.monitored_host = monitored_host(fleet, role);
  cfg.warmup = Duration::millis(200);
  cfg.capture = Duration::seconds(1);
  cfg.seed = 3;
  // Keep the test cheap.
  cfg.mix.cache_follower.gets_served_per_sec = 5'000.0;
  cfg.mix.cache_leader.coherency_msgs_per_sec = 3'000.0;
  cfg.mix.web.user_requests_per_sec = 50.0;
  cfg.background_rate_scale = 0.1;
  return cfg;
}

TEST(RackSimulationTest, TraceIsSortedAndWithinWindow) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimulation sim{fleet, quick_config(fleet, HostRole::kCacheFollower)};
  const RackSimResult result = sim.run();
  ASSERT_GT(result.trace.size(), 100u);
  EXPECT_EQ(result.capture_dropped, 0);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LE(result.trace[i - 1].timestamp, result.trace[i].timestamp);
  }
  for (const auto& pkt : result.trace) {
    EXPECT_GE(pkt.timestamp, result.capture_start);
    EXPECT_LE(pkt.timestamp, result.capture_end);
  }
}

TEST(RackSimulationTest, OnlyMonitoredHostMirrored) {
  const topology::Fleet fleet = small_rack_fleet();
  const RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  RackSimulation sim{fleet, cfg};
  const RackSimResult result = sim.run();
  const core::Ipv4Addr self = fleet.host(cfg.monitored_host).addr;
  for (const auto& pkt : result.trace) {
    EXPECT_TRUE(pkt.tuple.src_ip == self || pkt.tuple.dst_ip == self);
  }
}

TEST(RackSimulationTest, WholeRackMirrorCoversNeighbours) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg = quick_config(fleet, HostRole::kWeb);
  cfg.mirror_whole_rack = true;
  RackSimulation sim{fleet, cfg};
  const RackSimResult result = sim.run();

  const auto& rack = fleet.rack(fleet.host(cfg.monitored_host).rack);
  std::set<std::uint32_t> sources;
  for (const auto& pkt : result.trace) {
    const core::HostId src = fleet.host_by_addr(pkt.tuple.src_ip);
    if (src.is_valid() && fleet.host(src).rack == rack.id) sources.insert(src.value());
  }
  EXPECT_EQ(sources.size(), rack.hosts.size());
}

TEST(RackSimulationTest, DeterministicAcrossRuns) {
  const topology::Fleet fleet = small_rack_fleet();
  const RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  RackSimulation a{fleet, cfg};
  RackSimulation b{fleet, cfg};
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(ra.trace.size(), 500); ++i) {
    EXPECT_EQ(ra.trace[i].timestamp, rb.trace[i].timestamp);
    EXPECT_EQ(ra.trace[i].tuple, rb.trace[i].tuple);
    EXPECT_EQ(ra.trace[i].frame_bytes, rb.trace[i].frame_bytes);
  }
}

TEST(RackSimulationTest, SeedChangesTrace) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  RackSimulation a{fleet, cfg};
  cfg.seed = 4;
  RackSimulation b{fleet, cfg};
  EXPECT_NE(a.run().trace.size(), b.run().trace.size());
}

TEST(RackSimulationTest, SwitchCountersAccumulate) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimulation sim{fleet, quick_config(fleet, HostRole::kCacheFollower)};
  const RackSimResult result = sim.run();
  // Cache traffic leaves the rack: uplink counters must be busy.
  EXPECT_GT(result.uplink.tx_packets, 100);
  EXPECT_GT(result.uplink.tx_bytes, 10'000);
  // Inbound requests arrive at the host: downlinks busy too.
  EXPECT_GT(result.downlinks.tx_packets, 100);
}

TEST(RackSimulationTest, BufferSamplerProducesPerSecondStats) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg = quick_config(fleet, HostRole::kWeb);
  cfg.sample_buffer = true;
  cfg.capture = Duration::seconds(2);
  RackSimulation sim{fleet, cfg};
  const RackSimResult result = sim.run();
  EXPECT_GE(result.buffer_seconds.size(), 2u);
  for (const auto& s : result.buffer_seconds) {
    EXPECT_GE(s.max_fraction, s.median_fraction);
    EXPECT_LE(s.max_fraction, 1.0);
  }
}

// A rack so sparse that consecutive events often sit more than the
// simulator's ~4.2-ms wheel apart: run_loop keeps finding the wheel empty
// with only overflow events pending and jumps to the earliest of them. A
// jump that stops advancing spins forever, which the ctest TIMEOUT turns
// into a failure; a jump that lands wrong changes the pinned output.
TEST(RackSimulationTest, SparseRackJumpsAcrossAnEmptyWheel) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  cfg.mix = scale_rates(cfg.mix, 0.01);
  cfg.capture = Duration::seconds(2);
  RackSimulation rack{fleet, cfg};
  const RackSimResult r = rack.run();
  EXPECT_EQ(r.events, 1012u);
  EXPECT_EQ(r.trace.size(), 291u);
  EXPECT_EQ(tests::fingerprint(r), 0x952932fa9f05ab16ULL);
}

TEST(RackSimulationTest, RequiresMonitoredHost) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg;
  EXPECT_THROW(RackSimulation(fleet, cfg), std::invalid_argument);
}

TEST(ScaleRatesTest, ScalesEveryRateField) {
  services::ServiceMix mix;
  const services::ServiceMix scaled = scale_rates(mix, 0.5);
  EXPECT_DOUBLE_EQ(scaled.web.user_requests_per_sec, mix.web.user_requests_per_sec * 0.5);
  EXPECT_DOUBLE_EQ(scaled.cache_follower.gets_served_per_sec,
                   mix.cache_follower.gets_served_per_sec * 0.5);
  EXPECT_DOUBLE_EQ(scaled.cache_leader.coherency_msgs_per_sec,
                   mix.cache_leader.coherency_msgs_per_sec * 0.5);
  EXPECT_DOUBLE_EQ(scaled.hadoop.transfers_per_sec_busy,
                   mix.hadoop.transfers_per_sec_busy * 0.5);
  // Non-rate fields unchanged.
  EXPECT_EQ(scaled.web.cache_get_request, mix.web.cache_get_request);
}

TEST(PresetsTest, MonitoredHostHasRequestedRole) {
  const topology::Fleet fleet = small_rack_fleet();
  for (const HostRole role : {HostRole::kWeb, HostRole::kCacheFollower, HostRole::kHadoop}) {
    EXPECT_EQ(fleet.host(monitored_host(fleet, role)).role, role);
  }
  EXPECT_THROW(
      (void)monitored_host(
          topology::build_single_cluster_fleet(topology::ClusterType::kHadoop, 2, 2),
          HostRole::kWeb),
      std::invalid_argument);
}

TEST(PresetsTest, DefaultConfigMirrorsWholeWebRack) {
  const topology::Fleet fleet = small_rack_fleet();
  EXPECT_TRUE(default_rack_config(fleet, HostRole::kWeb).mirror_whole_rack);
  EXPECT_FALSE(default_rack_config(fleet, HostRole::kCacheFollower).mirror_whole_rack);
}

}  // namespace
}  // namespace fbdcsim::workload
