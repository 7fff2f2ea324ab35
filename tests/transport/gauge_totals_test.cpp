// Scan oracle for TransportMux's running gauge totals.
//
// The production transport gauges read totals the mux updates where a
// connection's gauge fields settle. Each case here samples them at stride 1
// on the same probe as test-only twins that re-sum every live connection
// through the public for_each_connection — the per-sample scan the totals
// replaced — and requires every bin of every pair to match. The cases
// cover the paths that move the totals: SACK recovery and RTOs under heavy
// faults, DCTCP alpha and window reductions, go-back-N after a timeout
// (scripted loss), and release() of connections whose handshake failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "../support/scripted_loss.h"
#include "../support/telemetry_on.h"
#include "../support/transport_probes.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/transport/mux.h"

namespace fbdcsim::transport {
namespace {

using telemetry::SeriesSnapshot;
using telemetry::TimeSeriesProbe;

constexpr const char* kGauges[] = {"active_connections", "cwnd_bytes", "ssthresh_bytes",
                                   "inflight_bytes",     "alpha_q16",  "rto_pending"};

/// Registers `oracle.<gauge>` for every transport gauge: a full scan of the
/// live connections, evaluated on every tick.
void register_oracle(TimeSeriesProbe& probe, const TransportMux& mux) {
  const auto scan = [&mux](auto field) {
    return [&mux, field] {
      std::int64_t total = 0;
      mux.for_each_connection([&](const TcpConnection& c) { total += field(c); });
      return total;
    };
  };
  probe.add_gauge("oracle.active_connections",
                  scan([](const TcpConnection&) { return std::int64_t{1}; }));
  probe.add_gauge("oracle.cwnd_bytes", scan([](const TcpConnection& c) { return c.out.cwnd; }));
  probe.add_gauge("oracle.ssthresh_bytes",
                  scan([](const TcpConnection& c) { return c.out.ssthresh; }));
  probe.add_gauge("oracle.inflight_bytes",
                  scan([](const TcpConnection& c) { return c.out.inflight(); }));
  probe.add_gauge("oracle.alpha_q16",
                  scan([](const TcpConnection& c) { return c.out.alpha_q16; }));
  probe.add_gauge("oracle.rto_pending", scan([](const TcpConnection& c) {
                    return std::int64_t{c.out.rto_scheduled} + std::int64_t{c.in.rto_scheduled};
                  }));
}

/// Every `transport.<gauge>` series equals its `oracle.<gauge>` twin, bin
/// for bin; returns the largest rto_pending sample seen.
std::int64_t expect_totals_match_scan(const std::vector<SeriesSnapshot>& series,
                                      const std::string& what) {
  std::int64_t max_rto_pending = 0;
  for (const char* gauge : kGauges) {
    const SeriesSnapshot* prod =
        telemetry::find_series(series, std::string{"transport."} + gauge);
    const SeriesSnapshot* oracle =
        telemetry::find_series(series, std::string{"oracle."} + gauge);
    if (prod == nullptr || oracle == nullptr) {
      ADD_FAILURE() << what << ": missing series for " << gauge;
      continue;
    }
    EXPECT_EQ(prod->period_ns, oracle->period_ns) << what << " " << gauge << ": stride 1";
    EXPECT_GT(prod->samples, 0) << what << " " << gauge;
    EXPECT_EQ(prod->samples, oracle->samples) << what << " " << gauge;
    EXPECT_EQ(prod->bins.size(), oracle->bins.size()) << what << " " << gauge;
    for (std::size_t i = 0; i < std::min(prod->bins.size(), oracle->bins.size()); ++i) {
      const telemetry::SeriesBin& p = prod->bins[i];
      const telemetry::SeriesBin& o = oracle->bins[i];
      if (p.start_ns != o.start_ns || p.count != o.count || p.min != o.min ||
          p.max != o.max || p.last != o.last || p.sum != o.sum) {
        ADD_FAILURE() << what << " " << gauge << ": bin " << i << " at t=" << p.start_ns
                      << " ns: totals {min " << p.min << ", max " << p.max << ", last "
                      << p.last << ", sum " << p.sum << "} vs scan {min " << o.min
                      << ", max " << o.max << ", last " << o.last << ", sum " << o.sum
                      << "}";
        break;
      }
    }
    if (std::string{gauge} == "rto_pending") {
      for (const telemetry::SeriesBin& b : prod->bins) {
        max_rto_pending = std::max(max_rto_pending, b.max);
      }
    }
  }
  return max_rto_pending;
}

/// A TCP rack capture whose probe samples the transport gauges every tick
/// (100 us) with an exact ring: 300 ms of sim time fits 4096 bins, so
/// every bin is one sample.
workload::RackSimConfig oracle_rack_config(const topology::Fleet& fleet, core::HostRole role) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::millis(200));
  cfg.warmup = core::Duration::millis(100);
  cfg.transport = workload::Transport::kTcp;
  cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
  cfg.obs.probe_period = core::Duration::micros(100);
  cfg.obs.transport_stride = 1;
  cfg.obs.series_capacity = 4096;
  return cfg;
}

/// Runs the rack with the oracle on its probe and checks every bin.
/// Returns the mux stats, or nullopt when the rack has no probe.
std::optional<TransportMux::Stats> run_rack_against_oracle(
    const topology::Fleet& fleet, const workload::RackSimConfig& cfg, const std::string& what) {
  workload::RackSimulation rack{fleet, cfg};
  if (rack.probe() == nullptr) return std::nullopt;
  register_oracle(*rack.probe(), *rack.transport_mux());
  const workload::RackSimResult result = rack.run();
  EXPECT_GT(expect_totals_match_scan(result.timeseries, what), 0)
      << what << ": some RTO timer must have been pending";
  return rack.transport_mux()->stats();
}

TEST(TransportGaugeTotals, SackHeavyFaultRackMatchesScan) {
  if (!FBDCSIM_TELEMETRY_ENABLED) GTEST_SKIP() << "rack probes are compiled out";
  const tests::TelemetryOn on;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  for (const core::HostRole role : {core::HostRole::kWeb, core::HostRole::kHadoop}) {
    workload::RackSimConfig cfg = oracle_rack_config(fleet, role);
    cfg.tcp.recovery = LossRecovery::kSack;
    cfg.faults = &heavy;
    const auto stats = run_rack_against_oracle(fleet, cfg, core::to_string(role));
    ASSERT_TRUE(stats.has_value());
    EXPECT_GT(stats->sack_retransmits, 0) << core::to_string(role);
    EXPECT_GT(stats->rto_fired, 0) << core::to_string(role);
    EXPECT_GT(stats->connections_destroyed, 0) << core::to_string(role);
  }
}

TEST(TransportGaugeTotals, DctcpMarkingRackMatchesScan) {
  if (!FBDCSIM_TELEMETRY_ENABLED) GTEST_SKIP() << "rack probes are compiled out";
  const tests::TelemetryOn on;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg = oracle_rack_config(fleet, core::HostRole::kHadoop);
  cfg.warmup = core::Duration::millis(0);  // marking concentrates in the opening fan-in
  cfg.tcp.cc = CongestionControl::kDctcp;
  cfg.rsw.ecn_threshold = core::DataSize::bytes(64 * 1024);
  const auto stats = run_rack_against_oracle(fleet, cfg, "dctcp");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->dctcp_cwnd_reductions, 0) << "marking must reach the senders";
}

TEST(TransportGaugeTotals, FailedHandshakesReleaseTheirShare) {
  if (!FBDCSIM_TELEMETRY_ENABLED) GTEST_SKIP() << "rack probes are compiled out";
  const tests::TelemetryOn on;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  workload::RackSimConfig cfg = oracle_rack_config(fleet, core::HostRole::kWeb);
  cfg.faults = &heavy;
  cfg.tcp.max_handshake_tries = 1;  // the first handshake timeout releases
  const auto stats = run_rack_against_oracle(fleet, cfg, "handshake failures");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->handshake_failures, 0) << "release() after a failed handshake must run";
}

/// Samples a scripted-loss scenario every 5 us for one second of sim time
/// (the RTO fires at min_rto = 200 ms); returns the scenario's stats.
TransportMux::Stats run_scripted_against_oracle(LossRecovery recovery, std::int64_t segments,
                                                tests::ScriptedDrop drop,
                                                const std::string& what) {
  TimeSeriesProbe probe{core::Duration::micros(5), 4096};
  std::unique_ptr<sim::PeriodicTimer> timer;
  const tests::ScenarioOutcome outcome = tests::run_loss_scenario(
      recovery, segments, std::move(drop), core::Duration::seconds(1), 9, nullptr,
      [&](sim::Simulator& sim, TransportMux& mux) {
        mux.register_probes(probe, 1);
        register_oracle(probe, mux);
        timer = std::make_unique<sim::PeriodicTimer>(
            sim, probe.period(),
            [&probe](core::TimePoint now) { probe.sample_tick(now.count_nanos()); });
      });
  EXPECT_TRUE(outcome.completed) << what;
  EXPECT_GT(expect_totals_match_scan(probe.snapshot(), what), 0) << what;
  return outcome.stats;
}

TEST(TransportGaugeTotals, ScriptedTailLossRtoMatchesScan) {
  // The last three segments vanish: only the timer can repair them.
  for (const LossRecovery rec : {LossRecovery::kNewReno, LossRecovery::kSack}) {
    const TransportMux::Stats s = run_scripted_against_oracle(
        rec, 30,
        [](std::int64_t segment, int attempt) { return attempt == 1 && segment >= 27; },
        to_string(rec));
    EXPECT_EQ(s.rto_fired, 1) << to_string(rec);
  }
}

TEST(TransportGaugeTotals, ScriptedLostRetransmissionGoBackNMatchesScan) {
  // The hole's fast retransmission is lost too: the timer's go-back-N
  // stream repairs it.
  for (const LossRecovery rec : {LossRecovery::kNewReno, LossRecovery::kSack}) {
    const TransportMux::Stats s = run_scripted_against_oracle(
        rec, 60,
        [](std::int64_t segment, int attempt) { return segment == 20 && attempt <= 2; },
        to_string(rec));
    EXPECT_EQ(s.rto_fired, 1) << to_string(rec);
    EXPECT_GT(s.rtx_rto_segments, 0) << to_string(rec);
  }
}

}  // namespace
}  // namespace fbdcsim::transport
