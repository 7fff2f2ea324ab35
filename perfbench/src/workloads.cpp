#include "workloads.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "fbdcsim/analysis/burstiness.h"
#include "fbdcsim/analysis/concurrency.h"
#include "fbdcsim/analysis/fct.h"
#include "fbdcsim/analysis/flow_table.h"
#include "fbdcsim/analysis/heavy_hitters.h"
#include "fbdcsim/analysis/locality.h"
#include "fbdcsim/analysis/packet_stats.h"
#include "fbdcsim/analysis/resolver.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/runtime/parallel_capture.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/metrics.h"
#include "fbdcsim/telemetry/trace.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/fleet_flows.h"
#include "fbdcsim/workload/presets.h"
#include "fingerprint.h"

using namespace fbdcsim;

namespace perfbench {

namespace {

// rack_scripted keeps the scorecard's 2-s warmup and 1-s captures, on which
// the paper anchors are calibrated. The TCP workloads simulate less so that
// one pass stays near four host seconds.
const Size kSizes[] = {
    {"full", {2.0, 1.0}, {0.5, 0.3}, 4, 24},
    {"min", {0.2, 0.1}, {0.2, 0.1}, 2, 1},
};

/// Ledger ring per capture, as in the FCT-tails bench.
constexpr std::size_t kLedgerCapacity = 16384;
/// ShardedFleetRunner workers; with the consuming thread that is one
/// thread per core on a 4-core host.
constexpr int kFleetWorkers = 3;
/// Pool workers a rack pass runs its captures on, as the figure benches do
/// through ParallelCaptureRunner: one per core on a 4-core host.
constexpr int kRackWorkers = 4;

/// Differences of the global MetricsRegistry across one traced pass.
class RegistryDelta {
 public:
  RegistryDelta() : before_{telemetry::MetricsRegistry::global().snapshot()} {}
  void finish() { after_ = telemetry::MetricsRegistry::global().snapshot(); }

  [[nodiscard]] double counter(std::string_view name) const {
    return value(after_.counter(name)) - value(before_.counter(name));
  }
  [[nodiscard]] double histogram_sum(std::string_view name) const {
    return sum(after_.histogram(name)) - sum(before_.histogram(name));
  }
  [[nodiscard]] double histogram_count(std::string_view name) const {
    return count(after_.histogram(name)) - count(before_.histogram(name));
  }

 private:
  using Snap = telemetry::Snapshot;
  static double value(const Snap::CounterValue* c) {
    return c == nullptr ? 0.0 : static_cast<double>(c->value);
  }
  static double sum(const Snap::HistogramValue* h) { return h == nullptr ? 0.0 : h->sum; }
  static double count(const Snap::HistogramValue* h) {
    return h == nullptr ? 0.0 : static_cast<double>(h->count);
  }

  Snap before_;
  Snap after_;
};

/// Traced fleet passes time one offer_flow call in this many. Reading the
/// clock around every call (~15 M per pass) costs almost as much as the
/// call itself; it made the traced stream 1.8 times slower than the
/// untraced one and buried the split it is meant to show.
constexpr std::int64_t kOfferSampleEvery = 16;

/// Cost of two back-to-back clock reads, subtracted from each timed call.
std::int64_t clock_pair_ns() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> samples(1001);
    for (auto& sample : samples) {
      const auto a = Clock::now();
      sample = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - a).count();
    }
    std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
    return samples[500];
  }();
  return cost;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A capture's outputs plus what the benchmark reads from outside run().
struct Capture {
  core::HostRole role{};
  std::uint64_t seed{0};
  core::HostId host;
  core::Ipv4Addr self;
  workload::RackSimResult result;
  std::optional<transport::TransportMux::Stats> stats;
};

// ----- rack_scripted's paper anchors -----------------------------------------
//
// The anchor scorecard's 28 prose claims with the same bands, evaluated on
// the four role captures (Web, cache follower, cache leader, Hadoop).

struct Anchor {
  const char* claim;
  double lo;
  double hi;
  double measured;
  bool applies;  // counted as a check at this seed
  [[nodiscard]] bool pass() const { return measured >= lo && measured <= hi; }
};

/// Seeds whose captures the Hadoop anchors are checked on: the scorecard's
/// canonical seed and one more. The paper's Hadoop numbers describe a busy
/// node (§4.2) over long captures. In a 1-s capture this model's Hadoop node
/// is busy throughout at only about half of all seeds (quiet and busy phases
/// last 12 s and 20 s on average), and its byte shares ride on a few
/// heavy-tailed transfers, so at other seeds those anchors are evaluated,
/// noted when out of band, and not counted.
constexpr std::uint64_t kHadoopAnchorSeeds[] = {2, 42};

/// `caps` starts with the four role captures at the run's seed.
std::vector<Anchor> evaluate_anchors(const topology::Fleet& fleet,
                                     const analysis::AddrResolver& resolver,
                                     const std::vector<Capture>& caps, bool check_hadoop,
                                     SpanLog& log) {
  const Capture& web = caps[0];
  const Capture& cache_f = caps[1];
  const Capture& cache_l = caps[2];
  const Capture& hadoop = caps[3];
  std::vector<Anchor> out;
  const auto check = [&out](const char* claim, double lo, double hi, double measured) {
    out.push_back(Anchor{claim, lo, hi, measured, true});
  };
  const auto check_hadoop_node = [&out, check_hadoop](const char* claim, double lo, double hi,
                                                      double measured) {
    out.push_back(Anchor{claim, lo, hi, measured, check_hadoop});
  };

  {
    ScopedSpan span{log, "analysis.locality"};
    for (const auto& s : analysis::outbound_role_shares(web.result.trace, web.self, resolver)) {
      if (s.role == core::HostRole::kCacheFollower) {
        check("T2 Web outbound to cache ~63.1%", 48, 78, s.percent);
      }
      if (s.role == core::HostRole::kMultifeed) {
        check("T2 Web outbound to Multifeed ~15.2%", 8, 25, s.percent);
      }
    }
    for (const auto& s :
         analysis::outbound_role_shares(hadoop.result.trace, hadoop.self, resolver)) {
      if (s.role == core::HostRole::kHadoop) {
        check_hadoop_node("T2 Hadoop outbound to Hadoop ~99.8%", 98, 100, s.percent);
      }
    }
    const auto wl = analysis::locality_shares(web.result.trace, web.self, resolver);
    check("4.2 Web traffic mostly intra-cluster", 55, 95, wl[1]);
    check("4.2 Web rack-local traffic minimal", 0, 8, wl[0]);
    const auto hl = analysis::locality_shares(hadoop.result.trace, hadoop.self, resolver);
    check_hadoop_node("4.2 Busy Hadoop node ~75.7% rack-local", 50, 90, hl[0]);
    check_hadoop_node("4.2 Hadoop stays in cluster (99.8%)", 97, 100, hl[0] + hl[1]);
    const auto cl = analysis::locality_shares(cache_l.result.trace, cache_l.self, resolver);
    check("4.2 Cache leader mostly DC + inter-DC", 60, 100, cl[2] + cl[3]);

    std::set<std::uint32_t> web_peers;
    const auto cluster = fleet.host(cache_f.host).cluster;
    for (const auto& pkt : cache_f.result.trace) {
      if (pkt.tuple.src_ip != cache_f.self) continue;
      const auto host = resolver.host_of(pkt.tuple.dst_ip);
      if (host.is_valid() && fleet.host(host).role == core::HostRole::kWeb &&
          fleet.host(host).cluster == cluster) {
        web_peers.insert(host.value());
      }
    }
    const auto total_web =
        fleet.hosts_with_role_in_cluster(core::HostRole::kWeb, cluster).size();
    check("4.2 Cache follower reaches >90% of cluster's Web servers", 90, 100,
          100.0 * static_cast<double>(web_peers.size()) / static_cast<double>(total_web));
  }
  {
    ScopedSpan span{log, "analysis.flows"};
    core::Cdf sizes;
    for (const auto& f :
         analysis::FlowTable::outbound_flows(hadoop.result.trace, hadoop.self)) {
      sizes.add(static_cast<double>(f.payload_bytes));
    }
    check_hadoop_node("5.1 Hadoop: ~70% of flows < 10 KB", 55, 95,
                      sizes.fraction_at_or_below(10'000) * 100.0);
    check_hadoop_node("5.1 Hadoop: <5% of flows > 1 MB", 0, 5,
          (1.0 - sizes.fraction_at_or_below(1'000'000)) * 100.0);
    check_hadoop_node("5.1 Hadoop median flow < 1 KB", 0, 1000, sizes.median());
    const auto duty = analysis::flow_duty_cycles(cache_f.result.trace, cache_f.self);
    check("5.1 Cache flows internally bursty", 0, 25, duty.median() * 100.0);
    const auto rates = analysis::per_rack_second_rates(
        cache_f.result.trace, cache_f.self, resolver, cache_f.result.capture_start,
        cache_f.result.capture_end - cache_f.result.capture_start);
    check("5.2 Cache per-rack rates within 2x of median", 80, 100,
          analysis::rate_stability(rates).within_2x_of_median * 100.0);
  }
  {
    ScopedSpan span{log, "analysis.heavy_hitters"};
    const core::Duration span_len = cache_f.result.capture_end - cache_f.result.capture_start;
    core::Cdf flow_persist;
    flow_persist.add_all(analysis::hh_persistence(analysis::bin_outbound(
        cache_f.result.trace, cache_f.self, resolver, analysis::AggLevel::kFlow,
        core::Duration::millis(10), cache_f.result.capture_start, span_len)));
    check("5.3 Cache 5-tuple HH persistence low", 0, 25, flow_persist.median());
    core::Cdf rack_persist;
    rack_persist.add_all(analysis::hh_persistence(analysis::bin_outbound(
        cache_f.result.trace, cache_f.self, resolver, analysis::AggLevel::kRack,
        core::Duration::millis(100), cache_f.result.capture_start, span_len)));
    check("5.3 Cache rack-level HH persistence >40% @100ms", 35, 100, rack_persist.median());
  }
  {
    ScopedSpan span{log, "analysis.packets"};
    check("6.1 Web median packet < 200 B", 0, 230,
          analysis::packet_size_cdf(web.result.trace).median());
    check("6.1 Cache median packet < 200 B", 0, 230,
          analysis::packet_size_cdf(cache_f.result.trace).median());
    const auto hcdf = analysis::packet_size_cdf(hadoop.result.trace);
    check_hadoop_node("6.1 Hadoop bimodal: ACK + MTU modes", 70, 100,
          (hcdf.fraction_at_or_below(64.0) + 1.0 - hcdf.fraction_at_or_below(1500.0)) * 100.0);
    check_hadoop_node("6.2 Hadoop arrivals continuous at 15 ms", 0, 10,
          analysis::idle_bin_fraction(hadoop.result.trace, core::Duration::millis(15)) * 100.0);
    check_hadoop_node("6.2 Per-destination ON/OFF re-emerges", 50, 100,
          analysis::per_destination_idle_fractions(hadoop.result.trace, hadoop.self,
                                                   core::Duration::millis(15))
                  .median() *
              100.0);
    check("6.2 Web SYN interarrival median ~2 ms", 0.5, 5.0,
          analysis::syn_interarrival_cdf(web.result.trace, web.self).median() / 1000.0);
    check("6.2 Cache follower SYN interarrival median ~8 ms", 3.0, 16.0,
          analysis::syn_interarrival_cdf(cache_f.result.trace, cache_f.self).median() / 1000.0);
  }
  {
    ScopedSpan span{log, "analysis.concurrency"};
    check("6.4 Web server talks to 10-125 racks per 5 ms", 15, 125,
          analysis::concurrent_racks(web.result.trace, web.self, resolver).all.median());
    check("6.4 Cache follower talks to 225-300 racks per 5 ms", 150, 350,
          analysis::concurrent_racks(cache_f.result.trace, cache_f.self, resolver)
              .all.median());
    check_hadoop_node("6.4 Hadoop ~25 concurrent connections per 5 ms", 8, 60,
          analysis::concurrent_connections(hadoop.result.trace, hadoop.self).tuples.median());
    check("6.4 Cache holds 100s-1000s of concurrent connections", 100, 5000,
          analysis::concurrent_connections(cache_f.result.trace, cache_f.self).tuples.median());
    check("6.4 Cache follower ~29 HH racks per 5 ms", 10, 60,
          analysis::concurrent_heavy_hitter_racks(cache_f.result.trace, cache_f.self, resolver)
              .all.median());
  }
  return out;
}

// ----- rack workloads ----------------------------------------------------------

enum class RackAnalysis { kAnchors, kLocality, kFct };

struct RackSpec {
  std::vector<core::HostRole> roles;
  workload::Transport transport;
  transport::LossRecovery recovery;
  bool heavy_faults;
  bool flows;  // observability on with the FlowLedger
  RackAnalysis analysis;
};

/// The seeds after the first that a rack pass captures at (SplitMix64 of
/// the run's seed and the index), so neighbouring run seeds share none.
std::uint64_t derived_seed(std::uint64_t seed, int index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A rack pass captures every role at each of several seeds. The set-up
/// phase builds every RackSimulation on the calling thread; the timed phase
/// runs them on a pool through ParallelCaptureRunner, the figure benches'
/// path. Outputs are kept in task order (seed-major, so the first captures
/// are the run seed's roles) whatever order the captures ran in.
class RackWorkload final : public Workload {
 public:
  RackWorkload(RackSpec spec, std::uint64_t seed, RackTiming timing, int seeds)
      : spec_{std::move(spec)},
        timing_{timing},
        check_hadoop_anchors_{std::find(std::begin(kHadoopAnchorSeeds),
                                        std::end(kHadoopAnchorSeeds),
                                        seed) != std::end(kHadoopAnchorSeeds)} {
    for (int i = 0; i < seeds; ++i) {
      for (const core::HostRole role : spec_.roles) {
        tasks_.push_back({role, i == 0 ? seed : derived_seed(seed, i)});
      }
    }
    last_run_s_.assign(tasks_.size(), 0.0);
  }

  [[nodiscard]] std::vector<Mode> trace_group() const override {
    if (spec_.flows) return {Mode::kUntraced, Mode::kTraced, Mode::kObsOff};
    return {Mode::kUntraced, Mode::kTraced};
  }

  double setup_only() override {
    const auto t0 = Clock::now();
    const topology::Fleet fleet = workload::build_rack_experiment_fleet();
    const analysis::AddrResolver resolver{fleet};
    const auto plan = make_plan();
    const runtime::ThreadPool pool{kRackWorkers};
    std::vector<std::unique_ptr<workload::RackSimulation>> racks;
    for (const Task& task : tasks_) {
      racks.push_back(std::make_unique<workload::RackSimulation>(
          fleet, config(fleet, task, Mode::kUntraced, plan.get())));
    }
    return seconds_between(t0, Clock::now());
  }

  PassResult pass(Mode mode, SpanLog& log) override {
    PassResult r;
    r.mode = mode;
    log.set_enabled(mode == Mode::kTraced);
    const std::size_t first_span = log.spans().size();
    std::optional<RegistryDelta> delta;
    if (mode == Mode::kTraced) delta.emplace();

    const auto t0 = Clock::now();
    std::optional<topology::Fleet> fleet;
    {
      ScopedSpan span{log, "topology.fleet_build"};
      fleet.emplace(workload::build_rack_experiment_fleet());
    }
    std::optional<analysis::AddrResolver> resolver;
    {
      ScopedSpan span{log, "analysis.resolver_build"};
      resolver.emplace(*fleet);
    }
    const auto plan = make_plan();
    runtime::ThreadPool pool{kRackWorkers};

    // Set-up: every RackSimulation of the pass.
    struct Slot {
      std::int64_t op{0};
      std::unique_ptr<workload::RackSimulation> rack;
      Capture cap;
      Clock::time_point start;
      Clock::time_point end;
      std::string error;
    };
    std::vector<Slot> slots(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Task& task = tasks_[i];
      Slot& slot = slots[i];
      ++r.attempted;
      slot.op = log.next_op_id();
      slot.cap.role = task.role;
      slot.cap.seed = task.seed;
      try {
        const workload::RackSimConfig cfg = config(*fleet, task, mode, plan.get());
        ScopedSpan span{log, "workload.rack_construct", slot.op};
        slot.rack = std::make_unique<workload::RackSimulation>(*fleet, cfg);
        slot.cap.host = cfg.monitored_host;
        slot.cap.self = fleet->host(cfg.monitored_host).addr;
        r.sim_s += (cfg.warmup + cfg.capture).to_seconds();
      } catch (const std::exception& e) {
        slot.error = std::string{"constructor threw: "} + e.what();
      }
    }
    r.setup_s = seconds_between(t0, Clock::now());

    // Timed: every run() on the pool, longest first as the previous pass
    // measured them, so the batch does not end waiting on one long capture.
    // A task frees its simulation as soon as it has read the transport
    // stats, as a figure bench's task does.
    std::vector<std::size_t> order(slots.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return last_run_s_[a] > last_run_s_[b];
    });
    std::vector<std::function<int()>> runs;
    for (const std::size_t i : order) {
      Slot& slot = slots[i];
      runs.emplace_back([&slot] {
        if (!slot.rack) return 0;
        try {
          slot.start = Clock::now();
          slot.cap.result = slot.rack->run();
          slot.end = Clock::now();
          if (const transport::TransportMux* mux = slot.rack->transport_mux()) {
            slot.cap.stats = mux->stats();
          }
        } catch (const std::exception& e) {
          slot.error = std::string{"run() threw: "} + e.what();
        }
        slot.rack.reset();
        return 0;
      });
    }
    const auto b0 = Clock::now();
    (void)runtime::ParallelCaptureRunner{pool}.run(runs);
    r.run_s = seconds_between(b0, Clock::now());

    std::vector<Capture> caps;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (!slot.error.empty()) {
        ++r.failed;
        r.failures.push_back(std::string{"capture "} + core::to_string(slot.cap.role) +
                             " seed " + std::to_string(slot.cap.seed) + ": " + slot.error);
        continue;
      }
      last_run_s_[i] = seconds_between(slot.start, slot.end);
      log.record("workload.rack_run", slot.op, slot.start, slot.end);
      r.events += slot.cap.result.events;
      caps.push_back(std::move(slot.cap));
    }
    const bool complete = caps.size() == tasks_.size();

    // Timed analysis calls (skipped for obs-off reruns, which only compare
    // their captures).
    Hasher analysis_hash;
    std::vector<Anchor> anchors;
    const auto a0 = Clock::now();
    if (complete && mode != Mode::kObsOff) {
      switch (spec_.analysis) {
        case RackAnalysis::kAnchors:
          anchors = evaluate_anchors(*fleet, *resolver, caps, check_hadoop_anchors_, log);
          for (const Anchor& a : anchors) analysis_hash.add(a.measured);
          break;
        case RackAnalysis::kLocality: {
          ScopedSpan span{log, "analysis.locality"};
          for (const Capture& c : caps) {
            for (const double share :
                 analysis::locality_shares(c.result.trace, c.self, *resolver)) {
              analysis_hash.add(share);
            }
          }
          break;
        }
        case RackAnalysis::kFct: {
          ScopedSpan span{log, "analysis.fct"};
          analysis::FctTable table;
          for (const Capture& c : caps) table.add_all(c.result.flows.records);
          const analysis::FctCell cell = table.overall();
          analysis_hash.add(cell.slowdown.quantile(0.50));
          analysis_hash.add(cell.slowdown.quantile(0.99));
          analysis_hash.add(table.completed());
          break;
        }
      }
    }
    r.wall_s = r.run_s + seconds_between(a0, Clock::now());

    // Output checks.
    if (!complete) {
      ++r.attempted;
      ++r.failed;
      r.failures.push_back("analysis skipped: a capture failed");
    }
    for (const Anchor& a : anchors) {
      if (!a.applies) {
        if (!a.pass()) {
          r.notes.push_back(std::string{"anchor out of band, not checked at this seed: "} +
                            a.claim + " = " + std::to_string(a.measured));
        }
        continue;
      }
      ++r.attempted;
      if (!a.pass()) {
        ++r.failed;
        r.failures.push_back(std::string{"anchor out of band: "} + a.claim + " = " +
                             std::to_string(a.measured));
      }
    }
    if (spec_.flows && mode != Mode::kObsOff) {
      for (const Capture& c : caps) {
        ++r.attempted;
        if (c.result.flows.records.empty()) {
          ++r.failed;
          r.failures.push_back(std::string{"empty FlowLedger for "} + core::to_string(c.role));
        }
      }
    }

    Hasher core_hash;
    Hasher full_hash;
    for (const Capture& c : caps) {
      core_hash.add(static_cast<std::uint64_t>(c.role));
      core_hash.add(c.seed);
      hash_trace(core_hash, c.result.trace);
      hash_counters(core_hash, c.result.uplink);
      hash_counters(core_hash, c.result.downlinks);
      core_hash.add(c.result.capture_dropped);
      core_hash.add(c.result.capture_injected_dropped);
      if (c.stats) hash_stats(core_hash, *c.stats);
      full_hash.add(c.result.events);
      if (!c.result.flows.records.empty() || c.result.flows.total != 0) {
        full_hash.add(telemetry::flows_to_jsonl({c.result.flows}));
      }
    }
    r.core_fingerprint = core_hash.value();
    full_hash.add(r.core_fingerprint);
    full_hash.add(analysis_hash.value());
    r.fingerprint = full_hash.value();

    if (delta) {
      delta->finish();
      fill_layers(r, caps, *delta, log, first_span);
    }
    log.set_enabled(false);
    return r;
  }

 private:
  struct Task {
    core::HostRole role;
    std::uint64_t seed;
  };

  [[nodiscard]] std::unique_ptr<faults::FaultPlan> make_plan() const {
    if (!spec_.heavy_faults) return nullptr;
    return std::make_unique<faults::FaultPlan>(faults::heavy_profile());
  }

  /// Every field the workload relies on, set explicitly.
  [[nodiscard]] workload::RackSimConfig config(const topology::Fleet& fleet, const Task& task,
                                               Mode mode,
                                               const faults::FaultPlan* plan) const {
    workload::RackSimConfig cfg;
    cfg.monitored_host = workload::monitored_host(fleet, task.role);
    cfg.mirror_whole_rack = task.role == core::HostRole::kWeb;
    cfg.warmup = core::Duration::from_seconds(timing_.warmup_s);
    cfg.capture = core::Duration::from_seconds(timing_.capture_s);
    cfg.sample_buffer = false;
    cfg.seed = task.seed;
    cfg.background_rate_scale = cfg.mirror_whole_rack ? 1.0 : 0.15;
    cfg.transport = spec_.transport;
    cfg.tcp = transport::TcpParams{};
    cfg.tcp.cc = transport::CongestionControl::kNewReno;
    cfg.tcp.recovery = spec_.recovery;
    cfg.tcp.rtt_mode = transport::RttMode::kLocalityClass;
    cfg.engine = sim::Simulator::Engine::kBucketed;
    cfg.obs = telemetry::ObsConfig{};
    if (spec_.flows && mode != Mode::kObsOff) {
      cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
      cfg.obs.flows = true;
      cfg.obs.flow_capacity = kLedgerCapacity;
    }
    cfg.faults = plan;
    return cfg;
  }

  static void fill_layers(PassResult& r, const std::vector<Capture>& caps,
                          const RegistryDelta& delta, const SpanLog& log, std::size_t first) {
    double events = 0;
    double packets = 0, enqueued = 0, dropped = 0;
    double trace_packets = 0, capture_lost = 0;
    double probe = 0, ledger_records = 0, ledger_total = 0;
    transport::TransportMux::Stats s;
    for (const Capture& c : caps) {
      events += static_cast<double>(c.result.events);
      for (const switching::PortCounters* p : {&c.result.uplink, &c.result.downlinks}) {
        packets += static_cast<double>(p->tx_packets);
        enqueued += static_cast<double>(p->enqueued_packets);
        dropped += static_cast<double>(p->dropped_packets);
      }
      trace_packets += static_cast<double>(c.result.trace.size());
      capture_lost += static_cast<double>(c.result.capture_dropped);
      for (const auto& series : c.result.timeseries) {
        probe += static_cast<double>(series.samples);
      }
      ledger_records += static_cast<double>(c.result.flows.records.size());
      ledger_total += static_cast<double>(c.result.flows.total);
      if (c.stats) {
        s.segments_sent += c.stats->segments_sent;
        s.retransmit_segments += c.stats->retransmit_segments;
        s.rto_fired += c.stats->rto_fired;
        s.handshakes_completed += c.stats->handshakes_completed;
        s.bytes_delivered += c.stats->bytes_delivered;
        s.bytes_retransmitted += c.stats->bytes_retransmitted;
        s.path_loss_drops += c.stats->path_loss_drops;
      }
    }
    const double run_s = log.total_seconds("workload.rack_run", first);
    const double delivered = static_cast<double>(s.bytes_delivered);
    auto& l = r.layers;
    l["topology.fleet_build_s"] = log.total_seconds("topology.fleet_build", first);
    l["analysis.resolver_build_s"] = log.total_seconds("analysis.resolver_build", first);
    l["workload.rack_construct_s"] = log.total_seconds("workload.rack_construct", first);
    l["workload.rack_run_s"] = run_s;
    l["sim.events"] = events;
    l["sim.events_heap"] = delta.counter("sim.events_heap");
    l["sim.events_per_sim_s"] = ratio(events, r.sim_s);
    l["sim.ns_per_event"] = ratio(run_s * 1e9, events);
    l["switching.packets"] = packets;
    l["switching.drop_ratio"] = ratio(dropped, enqueued + dropped);
    l["transport.segments"] = static_cast<double>(s.segments_sent);
    l["transport.retransmit_ratio"] =
        ratio(static_cast<double>(s.retransmit_segments), static_cast<double>(s.segments_sent));
    l["transport.rto_fired"] = static_cast<double>(s.rto_fired);
    l["transport.handshakes"] = static_cast<double>(s.handshakes_completed);
    l["transport.goodput_ratio"] =
        ratio(delivered, delivered + static_cast<double>(s.bytes_retransmitted));
    l["transport.events_per_mb"] = ratio(events, delivered / 1e6);
    l["monitoring.trace_packets"] = trace_packets;
    l["monitoring.capture_loss_ratio"] = ratio(capture_lost, trace_packets + capture_lost);
    l["telemetry.probe_events"] = probe;
    l["telemetry.ledger_records"] = ledger_records;
    l["telemetry.ledger_total"] = ledger_total;
    l["analysis.s"] = r.wall_s - r.run_s;
    l["faults.path_loss_drops"] = static_cast<double>(s.path_loss_drops);
    l["faults.uplinks_failed"] = delta.counter("rack.uplinks_failed");
    l["core.arena_bytes"] = delta.counter("arena.bytes");
    l["core.arena_reuse"] = delta.counter("arena.reuse");
  }

  RackSpec spec_;
  RackTiming timing_;
  bool check_hadoop_anchors_;
  std::vector<Task> tasks_;
  std::vector<double> last_run_s_;  // per task, from the latest pass
};

// ----- fleet_fbflow --------------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::int64_t horizon_h)
      : seed_{seed}, horizon_h_{horizon_h} {}

  [[nodiscard]] std::vector<Mode> trace_group() const override {
    return {Mode::kUntraced, Mode::kTraced, Mode::kGenOnly};
  }

  double setup_only() override {
    SpanLog off;
    return Setup{*this, off}.seconds;
  }

  PassResult pass(Mode mode, SpanLog& log) override {
    PassResult r;
    r.mode = mode;
    const bool traced = mode == Mode::kTraced;
    log.set_enabled(traced);
    const std::size_t first_span = log.spans().size();
    std::optional<RegistryDelta> delta;
    if (traced) delta.emplace();

    Setup env{*this, log};
    r.setup_s = env.seconds;
    r.sim_s = env.gen_config.horizon.to_seconds();

    double bytes = 0.0;
    std::int64_t flows = 0;
    std::int64_t offer_ns = 0;
    const std::int64_t op = log.next_op_id();
    ++r.attempted;
    bool streamed = false;
    const auto t0 = Clock::now();
    try {
      if (mode == Mode::kGenOnly) {
        ScopedSpan span{log, "workload.fleet_gen", op};
        env.runner.stream([&](const core::FlowRecord& flow) {
          bytes += static_cast<double>(flow.bytes.count_bytes());
          ++flows;
        });
      } else if (traced) {
        ScopedSpan span{log, "runtime.stream", op};
        env.runner.stream([&](const core::FlowRecord& flow) {
          if (flows % kOfferSampleEvery == 0) {
            const auto c0 = Clock::now();
            env.pipeline.offer_flow(flow);
            offer_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - c0)
                            .count() -
                        clock_pair_ns();
          } else {
            env.pipeline.offer_flow(flow);
          }
          bytes += static_cast<double>(flow.bytes.count_bytes());
          ++flows;
        });
      } else {
        env.runner.stream([&](const core::FlowRecord& flow) {
          env.pipeline.offer_flow(flow);
          bytes += static_cast<double>(flow.bytes.count_bytes());
          ++flows;
        });
      }
      streamed = true;
    } catch (const std::exception& e) {
      ++r.failed;
      r.failures.push_back(std::string{"fleet stream threw: "} + e.what());
    }
    const auto t1 = Clock::now();
    r.run_s = seconds_between(t0, t1);
    r.flows = flows;

    Hasher analysis_hash;
    if (streamed && mode != Mode::kGenOnly) {
      const std::int64_t rate = env.pipeline.sampling_rate();
      {
        ScopedSpan span{log, "analysis.scuba_locality"};
        const auto locality = env.pipeline.scuba().locality_bytes(rate);
        for (const double b : locality.bytes) analysis_hash.add(b);
      }
      {
        ScopedSpan span{log, "analysis.cluster_matrix"};
        const auto matrix =
            env.pipeline.scuba().cluster_matrix(env.fleet, core::DatacenterId{0}, rate);
        for (const auto& row : matrix) {
          for (const double b : row) analysis_hash.add(b);
        }
      }
    }
    r.wall_s = seconds_between(t0, Clock::now());

    if (streamed && mode != Mode::kGenOnly) {
      ++r.attempted;
      if (env.pipeline.scuba().size() == 0) {
        ++r.failed;
        r.failures.push_back("Fbflow landed no Scuba rows");
      }
    }

    Hasher core_hash;
    core_hash.add(flows);
    core_hash.add(bytes);
    r.core_fingerprint = core_hash.value();
    Hasher full_hash;
    full_hash.add(r.core_fingerprint);
    full_hash.add(static_cast<std::uint64_t>(env.pipeline.scuba().size()));
    full_hash.add(env.pipeline.tag_failures());
    full_hash.add(analysis_hash.value());
    r.fingerprint = full_hash.value();

    if (delta) {
      delta->finish();
      const double stream_s = log.total_seconds("runtime.stream", first_span);
      const double offer_s = static_cast<double>(offer_ns * kOfferSampleEvery) / 1e9;
      auto& l = r.layers;
      l["topology.fleet_build_s"] = log.total_seconds("topology.fleet_build", first_span);
      l["analysis.resolver_build_s"] = log.total_seconds("analysis.resolver_build", first_span);
      l["runtime.stream_s"] = stream_s;
      l["monitoring.fbflow_offer_s"] = offer_s;
      l["monitoring.sink_share"] = ratio(offer_s, stream_s);
      l["monitoring.scuba_rows"] = static_cast<double>(env.pipeline.scuba().size());
      l["runtime.worker_utilization"] =
          ratio(delta->histogram_sum("runtime.pool.task_run_us") / 1e6,
                kFleetWorkers * stream_s);
      l["runtime.task_wait_us"] = ratio(delta->histogram_sum("runtime.pool.task_wait_us"),
                                        delta->histogram_count("runtime.pool.task_wait_us"));
      l["analysis.s"] = r.wall_s - r.run_s;
      l["core.arena_bytes"] = delta->counter("arena.bytes");
      l["core.arena_reuse"] = delta->counter("arena.reuse");
    }
    // The runner's own telemetry spans would otherwise accumulate per pass.
    telemetry::Tracer::global().clear();
    log.set_enabled(false);
    return r;
  }

 private:
  /// Everything a fleet pass builds before it streams, timed as set-up.
  struct Setup {
    Setup(const FleetWorkload& w, SpanLog& log)
        : start{Clock::now()},
          fleet{[&] {
            ScopedSpan span{log, "topology.fleet_build"};
            return workload::build_fleet_experiment_fleet();
          }()},
          resolver{[&] {
            ScopedSpan span{log, "analysis.resolver_build"};
            return analysis::AddrResolver{fleet};
          }()},
          gen_config{w.gen_config()},
          gen{[&] {
            ScopedSpan span{log, "workload.fleet_gen_construct"};
            return workload::FleetFlowGenerator{fleet, gen_config};
          }()},
          pool{kFleetWorkers},
          runner{gen, pool},
          pipeline{fleet, monitoring::kDefaultSamplingRate, core::RngStream{w.seed_}},
          seconds{seconds_between(start, Clock::now())} {}

    Clock::time_point start;
    topology::Fleet fleet;
    analysis::AddrResolver resolver;
    workload::FleetGenConfig gen_config;
    workload::FleetFlowGenerator gen;
    runtime::ThreadPool pool;
    runtime::ShardedFleetRunner runner;
    monitoring::FbflowPipeline pipeline;
    double seconds;
  };

  /// The Table 3 workload, every field set explicitly.
  [[nodiscard]] workload::FleetGenConfig gen_config() const {
    workload::FleetGenConfig cfg;
    cfg.horizon = core::Duration::hours(horizon_h_);
    cfg.epoch = core::Duration::minutes(30);
    cfg.rate_scale = 0.005;
    cfg.flows_per_component = 12;
    cfg.diurnal = core::DiurnalProfile::Params{};
    cfg.seed = seed_;
    cfg.mix = services::ServiceMix{};
    cfg.faults = nullptr;
    return cfg;
  }

  std::uint64_t seed_;
  std::int64_t horizon_h_;
};

RackSpec rack_spec(const std::string& name) {
  using core::HostRole;
  const std::vector<HostRole> four{HostRole::kWeb, HostRole::kCacheFollower,
                                   HostRole::kCacheLeader, HostRole::kHadoop};
  if (name == "rack_scripted") {
    return {four, workload::Transport::kScripted, transport::LossRecovery::kNewReno,
            /*heavy_faults=*/false, /*flows=*/false, RackAnalysis::kAnchors};
  }
  if (name == "rack_tcp") {
    return {four, workload::Transport::kTcp, transport::LossRecovery::kNewReno,
            /*heavy_faults=*/false, /*flows=*/false, RackAnalysis::kLocality};
  }
  return {{HostRole::kWeb, HostRole::kCacheLeader, HostRole::kHadoop},
          workload::Transport::kTcp, transport::LossRecovery::kSack,
          /*heavy_faults=*/true, /*flows=*/true, RackAnalysis::kFct};
}

}  // namespace

const Size* find_size(const std::string& name) {
  for (const Size& s : kSizes) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kWarmup: return "warmup";
    case Mode::kUntraced: return "untraced";
    case Mode::kTraced: return "traced";
    case Mode::kObsOff: return "obs_off";
    case Mode::kGenOnly: return "gen_only";
  }
  return "?";
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const Size& size) {
  if (name == "fleet_fbflow") {
    return std::make_unique<FleetWorkload>(seed, size.fleet_horizon_h);
  }
  if (name == "rack_scripted") {
    RackSpec spec = rack_spec(name);
    // The paper anchors are calibrated on captures of at least a second.
    if (size.scripted.capture_s < 1.0) spec.analysis = RackAnalysis::kLocality;
    return std::make_unique<RackWorkload>(std::move(spec), seed, size.scripted,
                                          size.rack_seeds);
  }
  if (name == "rack_tcp" || name == "rack_tcp_flows") {
    return std::make_unique<RackWorkload>(rack_spec(name), seed, size.tcp, size.rack_seeds);
  }
  return nullptr;
}

}  // namespace perfbench
