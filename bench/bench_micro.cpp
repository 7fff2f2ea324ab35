// Micro-benchmarks (google-benchmark) of the library's hot paths: the
// event loop, distribution samplers, switch forwarding, flow assembly, and
// heavy-hitter extraction. These guard the performance that makes the
// packet-level reproductions tractable (tens of millions of events per
// experiment).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "fbdcsim/analysis/flow_table.h"
#include "fbdcsim/analysis/heavy_hitters.h"
#include "fbdcsim/core/distributions.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/switching/switch.h"
#include "fbdcsim/topology/network.h"
#include "fbdcsim/topology/standard_fleet.h"

namespace {

using namespace fbdcsim;

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(core::TimePoint::from_nanos(i * 100), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventLoop);

// The three queue paths of the bucketed engine, each with a 48-byte capture
// (the size of the rack sim's packet lambdas). The queues move keys, so
// these times should not grow with the capture size.
constexpr std::int64_t kQueueEvents = 4'096;
constexpr std::int64_t kBucketNs = 4'096;  // the wheel's bucket width

struct PacketSizedAction {
  std::array<std::uint64_t, 5> payload;
  std::int64_t* sink;
  void operator()() const { *sink += static_cast<std::int64_t>(payload[0]); }
};

/// Start of the next wheel bucket after `now`.
core::TimePoint next_bucket(core::TimePoint now) {
  return core::TimePoint::from_nanos((now.count_nanos() / kBucketNs + 1) * kBucketNs);
}

/// Times spread over `span_ns` in a scrambled (non-monotone) order.
std::int64_t scrambled(std::int64_t i, std::int64_t span_ns) {
  return (i * 7'919) % kQueueEvents * span_ns / kQueueEvents;
}

// An action schedules a burst into the bucket being drained: the active heap.
void BM_SimulatorSameBucketBurst(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t sink = 0;
  for (auto _ : state) {
    sim.schedule_at(next_bucket(sim.now()), [&sim, &sink] {
      for (std::int64_t i = 0; i < kQueueEvents; ++i) {
        sim.schedule_after(core::Duration::nanos(scrambled(i, kBucketNs - 1)),
                           PacketSizedAction{{static_cast<std::uint64_t>(i)}, &sink});
      }
    });
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kQueueEvents);
}
BENCHMARK(BM_SimulatorSameBucketBurst);

// Timers 10-400 ms out (RTO-like), far beyond the ~4.2 ms wheel window: the
// overflow heap and its migration into the wheel.
void BM_SimulatorFarFutureTimers(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < kQueueEvents; ++i) {
      sim.schedule_after(core::Duration::millis(10) +
                             core::Duration::nanos(scrambled(i, 390'000'000)),
                         PacketSizedAction{{static_cast<std::uint64_t>(i)}, &sink});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kQueueEvents);
}
BENCHMARK(BM_SimulatorFarFutureTimers);

// Appends inside the wheel window in scrambled time order, ~10 per bucket:
// every bucket is dirty and sorted when the cursor reaches it.
void BM_SimulatorOutOfOrderAppends(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t sink = 0;
  for (auto _ : state) {
    const core::TimePoint base = next_bucket(sim.now());
    for (std::int64_t i = 0; i < kQueueEvents; ++i) {
      sim.schedule_at(base + core::Duration::nanos(scrambled(i, 400 * kBucketNs)),
                      PacketSizedAction{{static_cast<std::uint64_t>(i)}, &sink});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kQueueEvents);
}
BENCHMARK(BM_SimulatorOutOfOrderAppends);

void BM_ZipfSample(benchmark::State& state) {
  core::Zipf zipf{static_cast<std::size_t>(state.range(0)), 1.0};
  core::RngStream rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1'000)->Arg(100'000);

void BM_LogNormalSample(benchmark::State& state) {
  core::LogNormal dist{175.0, 1.1};
  core::RngStream rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogNormalSample);

void BM_SwitchForwarding(benchmark::State& state) {
  sim::Simulator sim;
  switching::SwitchConfig cfg;
  cfg.num_ports = 20;
  std::int64_t delivered = 0;
  switching::SharedBufferSwitch sw{
      sim, cfg, [&delivered](std::size_t, const switching::SimPacket&) { ++delivered; }};
  switching::SimPacket pkt;
  pkt.header.frame_bytes = 200;
  std::size_t port = 0;
  for (auto _ : state) {
    sw.enqueue(port, pkt);
    port = (port + 1) % 20;
    sim.run_until(sim.now() + core::Duration::micros(1));
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchForwarding);

void BM_FlowTableAssembly(benchmark::State& state) {
  const auto fleet = topology::build_single_cluster_fleet(topology::ClusterType::kFrontend, 16, 8);
  core::RngStream rng{7};
  std::vector<core::PacketHeader> trace;
  trace.reserve(100'000);
  const core::Ipv4Addr self = fleet.hosts()[0].addr;
  for (int i = 0; i < 100'000; ++i) {
    core::PacketHeader pkt;
    pkt.timestamp = core::TimePoint::from_nanos(i * 1000);
    pkt.tuple = core::FiveTuple{
        self, fleet.hosts()[static_cast<std::size_t>(rng.uniform_int(1, 127))].addr,
        static_cast<core::Port>(40000 + rng.uniform_int(0, 499)), 80, core::Protocol::kTcp};
    pkt.payload_bytes = 200;
    pkt.frame_bytes = 254;
    trace.push_back(pkt);
  }
  for (auto _ : state) {
    const auto flows = analysis::FlowTable::outbound_flows(trace, self);
    benchmark::DoNotOptimize(flows.size());
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_FlowTableAssembly);

void BM_HeavyHitterExtraction(benchmark::State& state) {
  core::RngStream rng{9};
  std::unordered_map<std::uint64_t, double> bin;
  for (std::uint64_t k = 0; k < 500; ++k) bin[k] = rng.uniform(1.0, 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::heavy_hitters_of(bin));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeavyHitterExtraction);

void BM_RouterPath(benchmark::State& state) {
  const auto fleet = topology::build_standard_fleet();
  const auto net = topology::FourPostBuilder{}.build(fleet);
  const topology::Router router{fleet, net};
  const core::HostId src{0};
  const core::HostId dst{static_cast<std::uint32_t>(fleet.num_hosts() - 1)};
  core::FiveTuple tuple{fleet.host(src).addr, fleet.host(dst).addr, 40000, 80,
                        core::Protocol::kTcp};
  for (auto _ : state) {
    tuple.src_port = static_cast<core::Port>(tuple.src_port + 1);
    benchmark::DoNotOptimize(router.route(src, dst, tuple));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterPath);

}  // namespace

BENCHMARK_MAIN();
